#include "rivet/analysis.h"

#include <algorithm>

#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace daspos {
namespace rivet {

Histo1D* Analysis::Book(const std::string& tag, int nbins, double lo,
                        double hi) {
  std::string path = "/" + Name() + "/" + tag;
  auto [it, inserted] =
      histograms_.insert_or_assign(tag, Histo1D(path, nbins, lo, hi));
  if (inserted) order_.push_back(tag);
  return &it->second;
}

Histo1D* Analysis::Histogram(const std::string& tag) {
  auto it = histograms_.find(tag);
  return it != histograms_.end() ? &it->second : nullptr;
}

std::vector<Histo1D> Analysis::Histograms() const {
  std::vector<Histo1D> out;
  out.reserve(order_.size());
  for (const std::string& tag : order_) out.push_back(histograms_.at(tag));
  return out;
}

void AnalysisHandler::Add(std::unique_ptr<Analysis> analysis) {
  analyses_.push_back(std::move(analysis));
}

void AnalysisHandler::Run(const std::vector<GenEvent>& events,
                          ThreadPool* pool) {
  Span span("rivet:run", "rivet");
  span.AddAttribute("events", static_cast<uint64_t>(events.size()));
  span.AddAttribute("analyses", static_cast<uint64_t>(analyses_.size()));
  MetricsRegistry::Global()
      .GetCounter(metric_names::kRivetEventsTotal)
      .Increment(static_cast<uint64_t>(events.size()));
  if (!initialized_) {
    for (auto& analysis : analyses_) analysis->Init();
    initialized_ = true;
  }
  // Weight bookkeeping stays on the calling thread, in event order.
  for (const GenEvent& event : events) {
    sum_of_weights_ += event.weight;
    ++events_processed_;
  }
  // Parallelism is across analyses, never across events: each analysis
  // walks the identical in-order event stream it would see serially, so
  // order-sensitive accumulations reproduce exactly.
  ParallelFor(
      pool, analyses_.size(),
      [this, &events](size_t a) {
        for (const GenEvent& event : events) analyses_[a]->Analyze(event);
      },
      /*grain=*/1);
}

std::vector<Histo1D> AnalysisHandler::Finalize() {
  std::vector<Histo1D> out;
  for (auto& analysis : analyses_) {
    analysis->Finalize(sum_of_weights_);
    for (Histo1D& histogram : analysis->Histograms()) {
      out.push_back(std::move(histogram));
    }
  }
  return out;
}

Result<ValidationResult> CompareToReference(
    const std::vector<Histo1D>& produced,
    const std::vector<Histo1D>& reference) {
  ValidationResult result;
  for (const Histo1D& ref : reference) {
    const Histo1D* match = nullptr;
    for (const Histo1D& histogram : produced) {
      if (histogram.path() == ref.path()) {
        match = &histogram;
        break;
      }
    }
    if (match == nullptr) {
      ++result.histograms_missing;
      continue;
    }
    // Shape comparison: normalize copies before the chi2.
    Histo1D a = *match;
    Histo1D b = ref;
    a.Normalize();
    b.Normalize();
    DASPOS_ASSIGN_OR_RETURN(Chi2Result chi2, Chi2Test(a, b));
    DASPOS_ASSIGN_OR_RETURN(double ks, KolmogorovDistance(*match, ref));
    ++result.histograms_compared;
    if ((match->Integral() == 0.0) != (ref.Integral() == 0.0)) {
      ++result.histograms_empty_on_one_side;
    }
    result.worst_reduced_chi2 =
        std::max(result.worst_reduced_chi2, chi2.reduced());
    result.worst_ks = std::max(result.worst_ks, ks);
  }
  return result;
}

}  // namespace rivet
}  // namespace daspos
