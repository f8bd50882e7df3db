// The RIVET-analog analysis framework (§2.3): an analysis is a plugin over
// *unfolded truth-level* events that books histograms, applies cuts via
// projections, and compares against preserved reference data. The framework
// deliberately refuses detector-level input — the §2.4 limitation ("no way
// to include a detector simulation") that the RECAST bridge lifts.
#ifndef DASPOS_RIVET_ANALYSIS_H_
#define DASPOS_RIVET_ANALYSIS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "event/truth.h"
#include "hist/compare.h"
#include "hist/histo1d.h"
#include "support/result.h"

namespace daspos {

class ThreadPool;

namespace rivet {

/// Base class for preserved analyses. Lifecycle: Init -> Analyze per event
/// -> Finalize. Histograms are booked through the base so the handler owns
/// the output.
class Analysis {
 public:
  virtual ~Analysis() = default;

  /// Unique analysis key, conventionally EXPERIMENT_YEAR_TOPIC
  /// ("DASPOS_2014_ZLL").
  virtual std::string Name() const = 0;
  /// One-line physics summary (shown in the repository listing).
  virtual std::string Summary() const = 0;

  virtual void Init() = 0;
  virtual void Analyze(const GenEvent& event) = 0;
  /// Called once at the end; `sum_of_weights` is the accumulated event
  /// weight for normalization.
  virtual void Finalize(double sum_of_weights) = 0;

  /// Histograms produced (after Finalize).
  std::vector<Histo1D> Histograms() const;

 protected:
  /// Books (or rebooks) a histogram under /<name>/<tag>.
  Histo1D* Book(const std::string& tag, int nbins, double lo, double hi);
  Histo1D* Histogram(const std::string& tag);

 private:
  std::map<std::string, Histo1D> histograms_;
  std::vector<std::string> order_;
};

/// Runs a set of analyses over truth events and collects outputs —
/// the equivalent of the `rivet` executable.
class AnalysisHandler {
 public:
  /// Registers an analysis instance (handler takes ownership).
  void Add(std::unique_ptr<Analysis> analysis);

  /// Processes events; can be called repeatedly. With a pool, the analyses
  /// run concurrently — each analysis still sees the full event sequence in
  /// order, so per-analysis histogram fills (float accumulation included)
  /// are bit-identical to the serial run. Events are never sharded across
  /// threads within one analysis.
  void Run(const std::vector<GenEvent>& events, ThreadPool* pool = nullptr);

  /// Finalizes all analyses and returns every histogram.
  std::vector<Histo1D> Finalize();

  size_t analysis_count() const { return analyses_.size(); }
  uint64_t events_processed() const { return events_processed_; }

 private:
  std::vector<std::unique_ptr<Analysis>> analyses_;
  bool initialized_ = false;
  double sum_of_weights_ = 0.0;
  uint64_t events_processed_ = 0;
};

/// Verdict of comparing produced histograms against reference data.
struct ValidationResult {
  int histograms_compared = 0;
  int histograms_missing = 0;
  /// Compared pairs where exactly one side has no entries. Normalizing
  /// leaves such a pair with no shape to compare, and a sparse reference
  /// can still score a small chi2 against nothing, so these are counted
  /// apart and fail on their own.
  int histograms_empty_on_one_side = 0;
  double worst_reduced_chi2 = 0.0;
  /// Largest Kolmogorov distance between a produced histogram and its
  /// reference (informational; Compatible does not gate on it).
  double worst_ks = 0.0;
  bool Compatible(double max_reduced_chi2 = 3.0) const {
    return histograms_missing == 0 && histograms_empty_on_one_side == 0 &&
           worst_reduced_chi2 <= max_reduced_chi2;
  }
};

/// Shape-compares (after normalization) each produced histogram with the
/// reference histogram of the same path: reduced chi2 and Kolmogorov
/// distance. References with no produced counterpart count as missing; a
/// compared pair empty on one side only is counted in
/// `histograms_empty_on_one_side` (its KS distance is 1), so it is never
/// Compatible. Two empty histograms match.
Result<ValidationResult> CompareToReference(
    const std::vector<Histo1D>& produced,
    const std::vector<Histo1D>& reference);

}  // namespace rivet
}  // namespace daspos

#endif  // DASPOS_RIVET_ANALYSIS_H_
