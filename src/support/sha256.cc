#include "support/sha256.h"

#include <cstring>

#include "support/sha256_internal.h"

// The SHA-NI kernel needs x86-64 and a compiler that can target the SHA
// extensions per function, so the rest of the build keeps its baseline ISA.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DASPOS_SHA256_SHANI 1
#include <immintrin.h>
#endif

namespace daspos {
namespace {

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

constexpr char kHexDigits[] = "0123456789abcdef";

#ifdef DASPOS_SHA256_SHANI
#define DASPOS_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds: message words `w` plus their round constants at `k`. The
// state lives as ABEF/CDGH halves, the layout SHA256RNDS2 works on.
DASPOS_SHA_TARGET inline void FourRounds(__m128i& abef, __m128i& cdgh,
                                         __m128i w, const uint32_t* k) {
  const __m128i msg = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

// The next four schedule words from the previous sixteen (w0 oldest).
DASPOS_SHA_TARGET inline __m128i NextWords(__m128i w0, __m128i w1, __m128i w2,
                                           __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

DASPOS_SHA_TARGET void CompressShaNi(uint32_t* state, const uint8_t* data,
                                     size_t nblocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i* const words = reinterpret_cast<__m128i*>(state);
  const __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* block = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(block), byte_swap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(block + 1), byte_swap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(block + 2), byte_swap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(block + 3), byte_swap);
    FourRounds(abef, cdgh, w0, kRoundConstants);
    FourRounds(abef, cdgh, w1, kRoundConstants + 4);
    FourRounds(abef, cdgh, w2, kRoundConstants + 8);
    FourRounds(abef, cdgh, w3, kRoundConstants + 12);
    for (const uint32_t* k = kRoundConstants + 16; k < kRoundConstants + 64;
         k += 16) {
      w0 = NextWords(w0, w1, w2, w3);
      FourRounds(abef, cdgh, w0, k);
      w1 = NextWords(w1, w2, w3, w0);
      FourRounds(abef, cdgh, w1, k + 4);
      w2 = NextWords(w2, w3, w0, w1);
      FourRounds(abef, cdgh, w2, k + 8);
      w3 = NextWords(w3, w0, w1, w2);
      FourRounds(abef, cdgh, w3, k + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

#undef DASPOS_SHA_TARGET
#endif  // DASPOS_SHA256_SHANI

// Resolved on first use, so hashing from static initializers is safe too.
sha256_internal::Kernel ActiveKernel() {
  static const sha256_internal::Kernel kernel = [] {
    sha256_internal::Kernel sha_ni = sha256_internal::ShaNiKernel();
    return sha_ni != nullptr ? sha_ni : sha256_internal::CompressPortable;
  }();
  return kernel;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t* state, const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel ShaNiKernel() {
#ifdef DASPOS_SHA256_SHANI
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return CompressShaNi;
  }
#endif
  return nullptr;
}

Sha256 HasherWith(Kernel kernel) { return Sha256(kernel); }

}  // namespace sha256_internal

Sha256::Sha256() : Sha256(ActiveKernel()) {}

Sha256::Sha256(sha256_internal::Kernel kernel) : kernel_(kernel) { Reset(); }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  // Only a partial head block goes through buffer_; whole blocks are
  // compressed in place, in one kernel call.
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    kernel_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const size_t whole = len / 64;
  if (whole > 0) {
    kernel_(state_, p, whole);
    p += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Digest() {
  // Padding: 0x80, zeros, 64-bit big-endian bit count.
  uint64_t bit_count = bit_count_;
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (size_t i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_count >> (56 - 8 * i));
  }
  // Update() also advances bit_count_, but the length bytes encode the
  // pre-padding count captured above, as the spec requires.
  Update(pad, pad_len + 8);

  std::array<uint8_t, kDigestSize> out;
  for (size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256::HexDigest() {
  auto digest = Digest();
  std::string hex;
  hex.reserve(2 * kDigestSize);
  for (uint8_t byte : digest) {
    hex.push_back(kHexDigits[byte >> 4]);
    hex.push_back(kHexDigits[byte & 0x0f]);
  }
  return hex;
}

std::string Sha256::HashHex(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.HexDigest();
}

const char* Sha256::KernelName() {
  return ActiveKernel() == sha256_internal::CompressPortable ? "portable"
                                                             : "sha-ni";
}

}  // namespace daspos
