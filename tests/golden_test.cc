// Golden chain manifest: regenerates StandardChainWorkflow(z_ll, 50, 7),
// stopped after each tier in turn, and compares every tier's SHA-256 with
// tests/golden/chain_z_ll_50_seed7.json.
// Other determinism checks compare one build with itself; this one pins the
// bytes across builds, so a codec rewrite that changes any tier fails here.
//
// The generator and simulation call libm, so the pinned digests hold only
// for the toolchain recorded in the manifest. On any other toolchain the
// test skips and prints the fingerprint it saw together with the digests it
// computed, which is what a manifest for that toolchain would hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detsim/calib.h"
#include "serialize/json.h"
#include "support/io.h"
#include "support/sha256.h"
#include "toolchain_fingerprint.h"
#include "workflow/engine.h"
#include "workflow/steps.h"

namespace daspos {
namespace {

/// Tier datasets of the standard chain, in production order.
const std::vector<std::string> kTiers = {"gen", "raw", "reco", "aod",
                                         "derived"};

/// Runs the chain stopped after `last_tier` at `threads` and returns the
/// digest of each tier it produced, in kTiers order (empty on an execution
/// failure, which is reported).
std::vector<std::string> ChainDigests(size_t threads, DataTier last_tier) {
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = threads;
  auto report = ExecuteChain(
      StandardChainWorkflow(Process::kZToLL, 50, 7, last_tier),
      CalibrationSet(), &context, nullptr, options);
  if (!report.ok() || !report->fully_succeeded()) {
    ADD_FAILURE() << "chain to " << TierName(last_tier)
                  << " did not complete at threads=" << threads;
    return {};
  }
  std::vector<std::string> digests;
  for (size_t i = 0; i <= static_cast<size_t>(last_tier); ++i) {
    digests.push_back(Sha256::HashHex(*context.GetDataset(kTiers[i])));
  }
  return digests;
}

std::string DescribeDigests(const std::vector<std::string>& digests) {
  Json tiers = Json::Object();
  for (size_t i = 0; i < digests.size() && i < kTiers.size(); ++i) {
    tiers[kTiers[i]] = digests[i];
  }
  return tiers.Dump(2);
}

/// Every chain length, from generation alone to the full chain, must
/// reproduce the manifest's digest for each tier it produces.
void ExpectChainMatchesManifest(size_t threads) {
  auto text = ReadFileToString(std::string(DASPOS_GOLDEN_DIR) +
                               "/chain_z_ll_50_seed7.json");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto manifest = Json::Parse(*text);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  const Json fingerprint = ToolchainFingerprint();
  if (!(fingerprint == manifest->Get("toolchain"))) {
    GTEST_SKIP() << "toolchain " << fingerprint.Dump()
                 << " differs from the manifest's "
                 << manifest->Get("toolchain").Dump()
                 << "; digests on this toolchain: "
                 << DescribeDigests(ChainDigests(threads, DataTier::kDerived));
  }

  const Json& pinned = manifest->Get("tiers");
  for (DataTier last_tier : {DataTier::kGen, DataTier::kRaw, DataTier::kReco,
                             DataTier::kAod, DataTier::kDerived}) {
    const std::vector<std::string> digests = ChainDigests(threads, last_tier);
    ASSERT_EQ(digests.size(), static_cast<size_t>(last_tier) + 1);
    for (size_t i = 0; i < digests.size(); ++i) {
      if (digests[i] != pinned.Get(kTiers[i]).as_string()) {
        FAIL() << "threads=" << threads << ", chain to "
               << TierName(last_tier) << ": first diverging tier is '"
               << kTiers[i] << "' (got " << digests[i] << ", pinned "
               << pinned.Get(kTiers[i]).as_string()
               << "); all digests: " << DescribeDigests(digests);
      }
    }
  }
}

TEST(GoldenChainTest, SerialChainMatchesManifest) {
  ExpectChainMatchesManifest(1);
}

TEST(GoldenChainTest, FourThreadChainMatchesManifest) {
  ExpectChainMatchesManifest(4);
}

}  // namespace
}  // namespace daspos
