#include "anon/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/number_codec.h"

namespace wcop {

namespace {

// ---------------------------------------------------------------------------
// Fingerprinting (FNV-1a 64).
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashU64(uint64_t* h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }
void HashI64(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

void HashDouble(uint64_t* h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

void HashWcopOptions(uint64_t* h, const WcopOptions& o) {
  HashDouble(h, o.trash_fraction);
  HashU64(h, o.trash_max_override);
  HashDouble(h, o.radius_max);
  HashDouble(h, o.radius_growth);
  HashU64(h, o.max_clustering_rounds);
  HashU64(h, static_cast<uint64_t>(o.distance.kind));
  HashDouble(h, o.distance.tolerance.dx);
  HashDouble(h, o.distance.tolerance.dy);
  HashDouble(h, o.distance.tolerance.dt);
  HashDouble(h, o.distance.edr_scale);
  HashU64(h, o.seed);
  HashU64(h, static_cast<uint64_t>(o.pivot_policy));
  HashU64(h, static_cast<uint64_t>(o.clustering_algo));
  HashU64(h, static_cast<uint64_t>(o.delta_policy));
}

// ---------------------------------------------------------------------------
// Text encoding helpers. Numbers use common/number_codec.h, whose doubles
// round-trip exactly, so resumed arithmetic matches the uninterrupted run
// bit-for-bit.
// ---------------------------------------------------------------------------

void AppendU64(std::string* out, uint64_t v) {
  codec::AppendUint(out, v);
  out->push_back(' ');
}

void AppendI64(std::string* out, int64_t v) {
  codec::AppendInt(out, v);
  out->push_back(' ');
}

void AppendDouble(std::string* out, double v) {
  codec::AppendDouble(out, v);
  out->push_back(' ');
}

void AppendWord(std::string* out, std::string_view word) {
  out->append(word);
  out->push_back(' ');
}

/// Length-prefixed raw bytes: "<len> <bytes>". Safe for arbitrary content
/// (degraded reasons quote Status messages).
void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob);
  out->push_back(' ');
}

void EndLine(std::string* out) {
  if (!out->empty() && out->back() == ' ') {
    out->back() = '\n';
  } else {
    out->push_back('\n');
  }
}

class TokenReader {
 public:
  explicit TokenReader(std::string_view data) : data_(data) {}

  bool Word(std::string* out) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < data_.size() && !IsSpace(data_[pos_])) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->assign(data_.substr(start, pos_ - start));
    return true;
  }

  bool Literal(std::string_view expect) {
    std::string word;
    return Word(&word) && word == expect;
  }

  bool U64(uint64_t* out) { return Number(codec::ParseUint, out); }

  bool I64(int64_t* out) { return Number(codec::ParseInt, out); }

  bool SizeT(size_t* out) {
    uint64_t v = 0;
    if (!U64(&v)) return false;
    *out = static_cast<size_t>(v);
    return true;
  }

  bool Int(int* out) {
    int64_t v = 0;
    if (!I64(&v)) return false;
    *out = static_cast<int>(v);
    return true;
  }

  bool Double(double* out) { return Number(codec::ParseDouble, out); }

  bool Bool(bool* out) {
    uint64_t v = 0;
    if (!U64(&v) || v > 1) return false;
    *out = v == 1;
    return true;
  }

  bool Blob(std::string* out) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    // Exactly one separator between the length and the bytes.
    if (pos_ >= data_.size() || !IsSpace(data_[pos_])) return false;
    ++pos_;
    if (data_.size() - pos_ < len) return false;
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

 private:
  template <typename T>
  bool Number(std::optional<T> (*parse)(std::string_view), T* out) {
    std::string word;
    if (!Word(&word)) return false;
    const std::optional<T> v = parse(word);
    if (!v.has_value()) return false;
    *out = *v;
    return true;
  }

  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
  }

  void SkipSpace() {
    while (pos_ < data_.size() && IsSpace(data_[pos_])) {
      ++pos_;
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status Corrupt(std::string_view what) {
  return Status::DataLoss("checkpoint payload corrupt: " + std::string(what));
}

// Fixed-width trailer "end <020-digit total>\n" carrying the payload's final
// byte count (trailer included). Tokenized text can't otherwise notice losing
// trailing bytes — e.g. only the final newline — so the decoder checks the
// recorded total against the bytes it was actually handed.
constexpr size_t kEndMarkerSize = 25;  // "end " + 20 digits + '\n'

void AppendEndMarker(std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "end %020" PRIu64 "\n",
                static_cast<uint64_t>(out->size() + kEndMarkerSize));
  out->append(buf);
}

bool CheckEndMarker(TokenReader* in, size_t payload_size) {
  std::string word;
  uint64_t total = 0;
  return in->Word(&word) && word == "end" && in->U64(&total) &&
         total == payload_size;
}

// ---------------------------------------------------------------------------
// Sub-encoders of the WCOP-B payload.
// ---------------------------------------------------------------------------

void AppendTrajectory(std::string* out, const Trajectory& t) {
  AppendWord(out, "traj");
  AppendI64(out, t.id());
  AppendI64(out, t.object_id());
  AppendI64(out, t.parent_id());
  AppendI64(out, t.requirement().k);
  AppendDouble(out, t.requirement().delta);
  AppendU64(out, t.size());
  for (const Point& p : t.points()) {
    AppendDouble(out, p.x);
    AppendDouble(out, p.y);
    AppendDouble(out, p.t);
  }
  EndLine(out);
}

bool ReadTrajectory(TokenReader* in, Trajectory* out) {
  int64_t id = 0, object_id = 0, parent_id = 0;
  int k = 0;
  double delta = 0.0;
  size_t npoints = 0;
  if (!in->Literal("traj") || !in->I64(&id) || !in->I64(&object_id) ||
      !in->I64(&parent_id) || !in->Int(&k) || !in->Double(&delta) ||
      !in->SizeT(&npoints)) {
    return false;
  }
  std::vector<Point> points;
  points.reserve(npoints);
  for (size_t i = 0; i < npoints; ++i) {
    double x = 0.0, y = 0.0, t = 0.0;
    if (!in->Double(&x) || !in->Double(&y) || !in->Double(&t)) {
      return false;
    }
    points.emplace_back(x, y, t);
  }
  *out = Trajectory(id, std::move(points), Requirement{k, delta});
  out->set_object_id(object_id);
  out->set_parent_id(parent_id);
  return true;
}

void AppendCounters(
    std::string* out,
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  AppendWord(out, "ncounters");
  AppendU64(out, counters.size());
  EndLine(out);
  for (const auto& [name, value] : counters) {
    AppendWord(out, "counter");
    AppendBlob(out, name);
    AppendU64(out, value);
    EndLine(out);
  }
}

bool ReadCounters(TokenReader* in,
                  std::vector<std::pair<std::string, uint64_t>>* out) {
  size_t n = 0;
  if (!in->Literal("ncounters") || !in->SizeT(&n)) {
    return false;
  }
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!in->Literal("counter") || !in->Blob(&name) || !in->U64(&value)) {
      return false;
    }
    out->emplace_back(std::move(name), value);
  }
  return true;
}

void AppendReport(std::string* out, const AnonymizationReport& r) {
  AppendWord(out, "report");
  AppendU64(out, r.input_trajectories);
  AppendU64(out, r.num_clusters);
  AppendU64(out, r.trashed_trajectories);
  AppendU64(out, r.trashed_points);
  AppendDouble(out, r.discernibility);
  AppendU64(out, r.created_points);
  AppendU64(out, r.deleted_points);
  AppendDouble(out, r.total_spatial_translation);
  AppendDouble(out, r.total_temporal_translation);
  AppendDouble(out, r.avg_spatial_translation);
  AppendDouble(out, r.avg_temporal_translation);
  AppendDouble(out, r.omega);
  AppendDouble(out, r.ttd);
  AppendDouble(out, r.editing_distortion);
  AppendDouble(out, r.total_distortion);
  AppendDouble(out, r.runtime_seconds);
  AppendU64(out, r.clustering_rounds);
  AppendDouble(out, r.final_radius);
  AppendU64(out, r.degraded ? 1 : 0);
  AppendBlob(out, r.degraded_reason);
  EndLine(out);
}

bool ReadReport(TokenReader* in, AnonymizationReport* r) {
  return in->Literal("report") && in->SizeT(&r->input_trajectories) &&
         in->SizeT(&r->num_clusters) && in->SizeT(&r->trashed_trajectories) &&
         in->SizeT(&r->trashed_points) && in->Double(&r->discernibility) &&
         in->SizeT(&r->created_points) && in->SizeT(&r->deleted_points) &&
         in->Double(&r->total_spatial_translation) &&
         in->Double(&r->total_temporal_translation) &&
         in->Double(&r->avg_spatial_translation) &&
         in->Double(&r->avg_temporal_translation) && in->Double(&r->omega) &&
         in->Double(&r->ttd) && in->Double(&r->editing_distortion) &&
         in->Double(&r->total_distortion) && in->Double(&r->runtime_seconds) &&
         in->SizeT(&r->clustering_rounds) && in->Double(&r->final_radius) &&
         in->Bool(&r->degraded) && in->Blob(&r->degraded_reason);
}

void AppendAnonymizationResult(std::string* out,
                               const AnonymizationResult& result) {
  AppendWord(out, "ntraj");
  AppendU64(out, result.sanitized.size());
  EndLine(out);
  for (const Trajectory& t : result.sanitized.trajectories()) {
    AppendTrajectory(out, t);
  }
  AppendWord(out, "ntrashed");
  AppendU64(out, result.trashed_ids.size());
  for (const int64_t id : result.trashed_ids) {
    AppendI64(out, id);
  }
  EndLine(out);
  AppendWord(out, "nclusters");
  AppendU64(out, result.clusters.size());
  EndLine(out);
  for (const AnonymityCluster& c : result.clusters) {
    AppendWord(out, "cluster");
    AppendU64(out, c.pivot);
    AppendI64(out, c.k);
    AppendDouble(out, c.delta);
    AppendU64(out, c.members.size());
    for (const size_t m : c.members) {
      AppendU64(out, m);
    }
    EndLine(out);
  }
  AppendReport(out, result.report);
}

bool ReadAnonymizationResult(TokenReader* in, AnonymizationResult* result) {
  size_t ntraj = 0;
  if (!in->Literal("ntraj") || !in->SizeT(&ntraj)) {
    return false;
  }
  std::vector<Trajectory> sanitized;
  sanitized.reserve(ntraj);
  for (size_t i = 0; i < ntraj; ++i) {
    Trajectory t;
    if (!ReadTrajectory(in, &t)) {
      return false;
    }
    sanitized.push_back(std::move(t));
  }
  result->sanitized = Dataset(std::move(sanitized));
  size_t ntrashed = 0;
  if (!in->Literal("ntrashed") || !in->SizeT(&ntrashed)) {
    return false;
  }
  result->trashed_ids.reserve(ntrashed);
  for (size_t i = 0; i < ntrashed; ++i) {
    int64_t id = 0;
    if (!in->I64(&id)) {
      return false;
    }
    result->trashed_ids.push_back(id);
  }
  size_t nclusters = 0;
  if (!in->Literal("nclusters") || !in->SizeT(&nclusters)) {
    return false;
  }
  result->clusters.reserve(nclusters);
  for (size_t i = 0; i < nclusters; ++i) {
    AnonymityCluster c;
    size_t nmembers = 0;
    if (!in->Literal("cluster") || !in->SizeT(&c.pivot) || !in->Int(&c.k) ||
        !in->Double(&c.delta) || !in->SizeT(&nmembers)) {
      return false;
    }
    c.members.reserve(nmembers);
    for (size_t m = 0; m < nmembers; ++m) {
      size_t member = 0;
      if (!in->SizeT(&member)) {
        return false;
      }
      c.members.push_back(member);
    }
    result->clusters.push_back(std::move(c));
  }
  return ReadReport(in, &result->report);
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t h = kFnvOffset;
  HashU64(&h, dataset.size());
  for (const Trajectory& t : dataset.trajectories()) {
    HashI64(&h, t.id());
    HashI64(&h, t.object_id());
    HashI64(&h, t.parent_id());
    HashI64(&h, t.requirement().k);
    HashDouble(&h, t.requirement().delta);
    HashU64(&h, t.size());
    for (const Point& p : t.points()) {
      HashDouble(&h, p.x);
      HashDouble(&h, p.y);
      HashDouble(&h, p.t);
    }
  }
  return h;
}

uint64_t WcopOptionsFingerprint(const WcopOptions& options) {
  uint64_t h = kFnvOffset;
  HashWcopOptions(&h, options);
  return h;
}

uint64_t WcopBConfigFingerprint(const Dataset& dataset,
                                const WcopOptions& options,
                                const WcopBOptions& b_options) {
  uint64_t h = DatasetFingerprint(dataset);
  HashU64(&h, 0x57434f42ULL);  // "WCOB" domain separator
  HashWcopOptions(&h, options);
  HashDouble(&h, b_options.distort_max);
  HashU64(&h, b_options.step);
  HashDouble(&h, b_options.w1);
  HashDouble(&h, b_options.w2);
  HashU64(&h, b_options.max_edit_size);
  HashU64(&h, static_cast<uint64_t>(b_options.edit_policy));
  HashDouble(&h, b_options.proportional_strength);
  return h;
}

std::string EncodeWcopBCheckpoint(const WcopBCheckpoint& checkpoint) {
  std::string out;
  AppendWord(&out, "wcop-b-checkpoint");
  AppendU64(&out, kWcopBCheckpointVersion);
  EndLine(&out);
  AppendWord(&out, "fingerprint");
  AppendU64(&out, checkpoint.fingerprint);
  EndLine(&out);
  AppendWord(&out, "state");
  AppendU64(&out, checkpoint.next_edit_size);
  AppendU64(&out, checkpoint.terminal ? 1 : 0);
  AppendU64(&out, checkpoint.bound_satisfied ? 1 : 0);
  AppendU64(&out, checkpoint.final_edit_size);
  EndLine(&out);
  AppendWord(&out, "nrounds");
  AppendU64(&out, checkpoint.rounds.size());
  EndLine(&out);
  for (const WcopBRound& r : checkpoint.rounds) {
    AppendWord(&out, "round");
    AppendU64(&out, r.edit_size);
    AppendDouble(&out, r.ttd);
    AppendDouble(&out, r.editing_distortion);
    AppendDouble(&out, r.total_distortion);
    AppendU64(&out, r.num_clusters);
    AppendU64(&out, r.trashed);
    EndLine(&out);
  }
  AppendAnonymizationResult(&out, checkpoint.anonymization);
  AppendCounters(&out, checkpoint.counters);
  AppendEndMarker(&out);
  return out;
}

Result<WcopBCheckpoint> DecodeWcopBCheckpoint(std::string_view payload) {
  TokenReader in(payload);
  uint64_t version = 0;
  if (!in.Literal("wcop-b-checkpoint") || !in.U64(&version)) {
    return Corrupt("missing wcop-b preamble");
  }
  if (version != kWcopBCheckpointVersion) {
    return Status::FailedPrecondition(
        "wcop-b checkpoint version " + std::to_string(version) +
        " unsupported (expected " + std::to_string(kWcopBCheckpointVersion) +
        ")");
  }
  WcopBCheckpoint checkpoint;
  if (!in.Literal("fingerprint") || !in.U64(&checkpoint.fingerprint)) {
    return Corrupt("missing fingerprint");
  }
  if (!in.Literal("state") || !in.SizeT(&checkpoint.next_edit_size) ||
      !in.Bool(&checkpoint.terminal) || !in.Bool(&checkpoint.bound_satisfied) ||
      !in.SizeT(&checkpoint.final_edit_size)) {
    return Corrupt("bad wcop-b state line");
  }
  size_t nrounds = 0;
  if (!in.Literal("nrounds") || !in.SizeT(&nrounds)) {
    return Corrupt("bad round count");
  }
  checkpoint.rounds.reserve(nrounds);
  for (size_t i = 0; i < nrounds; ++i) {
    WcopBRound r;
    if (!in.Literal("round") || !in.SizeT(&r.edit_size) || !in.Double(&r.ttd) ||
        !in.Double(&r.editing_distortion) || !in.Double(&r.total_distortion) ||
        !in.SizeT(&r.num_clusters) || !in.SizeT(&r.trashed)) {
      return Corrupt("bad round");
    }
    checkpoint.rounds.push_back(r);
  }
  if (!ReadAnonymizationResult(&in, &checkpoint.anonymization)) {
    return Corrupt("bad anonymization result");
  }
  if (!ReadCounters(&in, &checkpoint.counters)) {
    return Corrupt("bad counters");
  }
  if (!CheckEndMarker(&in, payload.size())) {
    return Corrupt("bad end marker (truncated or trailing bytes)");
  }
  return checkpoint;
}

}  // namespace wcop
