// YODA-like plain-text histogram serialization — the reference-data exchange
// format of the RIVET-analog. Plain text is a deliberate preservation choice
// (the paper praises RIVET's light, portable footprint, §2.4): documents stay
// human-readable and diff-able indefinitely.
//
// Format:
//   BEGIN HISTO1D <path>
//   # nbins lo hi
//   binning: <nbins> <lo> <hi>
//   underflow: <sumw>
//   overflow: <sumw>
//   entries: <n>
//   <sumw> <sumw2>            (one line per bin)
//   END HISTO1D
#ifndef DASPOS_HIST_YODA_IO_H_
#define DASPOS_HIST_YODA_IO_H_

#include <string>
#include <vector>

#include "hist/histo1d.h"
#include "support/result.h"

namespace daspos {

/// Serializes histograms to the text format, in order.
std::string WriteYoda(const std::vector<Histo1D>& histos);

/// Parses a document produced by WriteYoda (tolerates blank lines and
/// '#' comments). Fails with Corruption on structural errors, including
/// the presence of any block that is not HISTO1D.
Result<std::vector<Histo1D>> ReadYoda(const std::string& text);

}  // namespace daspos

#endif  // DASPOS_HIST_YODA_IO_H_
