#include "hist/yoda_io.h"

#include <cstdio>

#include "support/strings.h"

namespace daspos {

namespace {
std::string FormatG17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string WriteYoda(const std::vector<Histo1D>& histos) {
  std::string out;
  for (const Histo1D& h : histos) {
    out += "BEGIN HISTO1D " + h.path() + "\n";
    out += "binning: " + std::to_string(h.axis().nbins()) + " " +
           FormatG17(h.axis().lo()) + " " + FormatG17(h.axis().hi()) + "\n";
    out += "underflow: " + FormatG17(h.underflow()) + "\n";
    out += "overflow: " + FormatG17(h.overflow()) + "\n";
    out += "entries: " + std::to_string(h.entries()) + "\n";
    for (int i = 0; i < h.axis().nbins(); ++i) {
      out += FormatG17(h.BinContent(i)) + " " +
             FormatG17(h.sumw2()[static_cast<size_t>(i)]) + "\n";
    }
    out += "END HISTO1D\n";
  }
  return out;
}

Result<std::vector<Histo1D>> ReadYoda(const std::string& text) {
  std::vector<Histo1D> out;
  std::vector<std::string> lines = Split(text, '\n');
  size_t i = 0;

  auto next_content_line = [&]() -> std::string_view {
    while (i < lines.size()) {
      std::string_view line = Trim(lines[i]);
      if (line.empty() || line[0] == '#') {
        ++i;
        continue;
      }
      return line;
    }
    return {};
  };

  while (true) {
    std::string_view line = next_content_line();
    if (line.empty()) break;
    if (!StartsWith(line, "BEGIN HISTO1D ")) {
      return Status::Corruption("expected BEGIN HISTO1D, got: " +
                                std::string(line));
    }
    std::string path(Trim(line.substr(14)));
    ++i;

    auto expect_field = [&](std::string_view key) -> Result<std::string> {
      std::string_view l = next_content_line();
      if (l.empty() || !StartsWith(l, key)) {
        return Status::Corruption("expected field '" + std::string(key) +
                                  "' in histogram " + path);
      }
      ++i;
      return std::string(Trim(l.substr(key.size())));
    };

    DASPOS_ASSIGN_OR_RETURN(std::string binning, expect_field("binning:"));
    std::vector<std::string> parts = Split(std::string(Trim(binning)), ' ');
    // Drop empty tokens from repeated spaces.
    std::vector<std::string> fields;
    for (auto& p : parts) {
      if (!Trim(p).empty()) fields.emplace_back(Trim(p));
    }
    if (fields.size() != 3) {
      return Status::Corruption("bad binning line in histogram " + path);
    }
    DASPOS_ASSIGN_OR_RETURN(uint64_t nbins, ParseU64(fields[0]));
    DASPOS_ASSIGN_OR_RETURN(double lo, ParseDouble(fields[1]));
    DASPOS_ASSIGN_OR_RETURN(double hi, ParseDouble(fields[2]));
    if (nbins == 0 || hi <= lo) {
      return Status::Corruption("invalid binning in histogram " + path);
    }

    DASPOS_ASSIGN_OR_RETURN(std::string uf_text, expect_field("underflow:"));
    DASPOS_ASSIGN_OR_RETURN(double uf, ParseDouble(uf_text));
    DASPOS_ASSIGN_OR_RETURN(std::string of_text, expect_field("overflow:"));
    DASPOS_ASSIGN_OR_RETURN(double of, ParseDouble(of_text));
    DASPOS_ASSIGN_OR_RETURN(std::string ent_text, expect_field("entries:"));
    DASPOS_ASSIGN_OR_RETURN(uint64_t entries, ParseU64(ent_text));

    Histo1D h(path, static_cast<int>(nbins), lo, hi);
    h.SetOutOfRange(uf, of, entries);
    for (uint64_t b = 0; b < nbins; ++b) {
      std::string_view l = next_content_line();
      if (l.empty()) {
        return Status::Corruption("truncated bin list in histogram " + path);
      }
      ++i;
      std::vector<std::string> bin_fields;
      for (auto& p : Split(std::string(l), ' ')) {
        if (!Trim(p).empty()) bin_fields.emplace_back(Trim(p));
      }
      if (bin_fields.size() != 2) {
        return Status::Corruption("bad bin line in histogram " + path);
      }
      DASPOS_ASSIGN_OR_RETURN(double sw, ParseDouble(bin_fields[0]));
      DASPOS_ASSIGN_OR_RETURN(double sw2, ParseDouble(bin_fields[1]));
      h.SetBin(static_cast<int>(b), sw, sw2);
    }
    std::string_view end_line = next_content_line();
    if (end_line != "END HISTO1D") {
      return Status::Corruption("missing END HISTO1D for histogram " + path);
    }
    ++i;
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace daspos
