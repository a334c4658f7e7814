#include "anon/effective_anonymity.h"

#include <algorithm>
#include <limits>

#include "distance/euclidean.h"

namespace wcop {

EffectiveAnonymityReport MeasureEffectiveAnonymity(const Dataset& published) {
  EffectiveAnonymityReport report;
  const size_t n = published.size();
  report.counts.assign(n, 0);
  if (n == 0) {
    return report;
  }
  // Co-localization here uses the synchronized max distance over the
  // temporal overlap: the from-first-principles reading of Definition 2
  // that also works when trajectories have different timelines (unlike the
  // aligned-timestamp fast path used inside the pipeline).
  for (size_t i = 0; i < n; ++i) {
    const double threshold = published[i].requirement().delta;
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        ++count;
        continue;
      }
      // Both must cover the same lifetime for Definition 2 to apply over
      // [t1, tn]; tolerate small boundary mismatch.
      if (std::abs(published[i].StartTime() - published[j].StartTime()) >
              1.0 ||
          std::abs(published[i].EndTime() - published[j].EndTime()) > 1.0) {
        continue;
      }
      if (MaxSynchronizedDistance(published[i], published[j]) <= threshold) {
        ++count;
      }
    }
    report.counts[i] = count;
  }

  size_t min_count = std::numeric_limits<size_t>::max();
  double sum = 0.0;
  size_t violations = 0;
  for (size_t i = 0; i < n; ++i) {
    min_count = std::min(min_count, report.counts[i]);
    sum += static_cast<double>(report.counts[i]);
    if (report.counts[i] <
        static_cast<size_t>(published[i].requirement().k)) {
      ++violations;
    }
  }
  report.min_anonymity = min_count;
  report.mean_anonymity = sum / static_cast<double>(n);
  report.violation_fraction =
      static_cast<double>(violations) / static_cast<double>(n);
  return report;
}

}  // namespace wcop
