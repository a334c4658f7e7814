#include "anon/checkpoint.h"

#include <cinttypes>
#include <cstdio>

#include "store/store_file.h"

namespace wcop {

namespace {

using codec::AppendBlobToken;
using codec::AppendDoubleToken;
using codec::AppendIntToken;
using codec::AppendUintToken;
using codec::AppendWordToken;
using codec::EndLine;

constexpr size_t kEndMarkerSize = 25;  // "end " + 20 digits + '\n'

void AppendReport(std::string* out, const AnonymizationReport& r) {
  AppendWordToken(out, "report");
  AppendUintToken(out, r.input_trajectories);
  AppendUintToken(out, r.num_clusters);
  AppendUintToken(out, r.trashed_trajectories);
  AppendUintToken(out, r.trashed_points);
  AppendDoubleToken(out, r.discernibility);
  AppendUintToken(out, r.created_points);
  AppendUintToken(out, r.deleted_points);
  AppendDoubleToken(out, r.total_spatial_translation);
  AppendDoubleToken(out, r.total_temporal_translation);
  AppendDoubleToken(out, r.avg_spatial_translation);
  AppendDoubleToken(out, r.avg_temporal_translation);
  AppendDoubleToken(out, r.omega);
  AppendDoubleToken(out, r.ttd);
  AppendDoubleToken(out, r.editing_distortion);
  AppendDoubleToken(out, r.total_distortion);
  AppendDoubleToken(out, r.runtime_seconds);
  AppendUintToken(out, r.clustering_rounds);
  AppendDoubleToken(out, r.final_radius);
  AppendUintToken(out, r.degraded ? 1 : 0);
  AppendBlobToken(out, r.degraded_reason);
  EndLine(out);
}

Status ReadReport(codec::TokenScanner* in, AnonymizationReport* r) {
  WCOP_RETURN_IF_ERROR(in->Expect("report"));
  WCOP_ASSIGN_OR_RETURN(r->input_trajectories, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->num_clusters, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->trashed_trajectories, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->trashed_points, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->discernibility, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->created_points, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->deleted_points, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->total_spatial_translation, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->total_temporal_translation, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->avg_spatial_translation, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->avg_temporal_translation, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->omega, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->ttd, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->editing_distortion, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->total_distortion, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->runtime_seconds, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->clustering_rounds, in->NextUint());
  WCOP_ASSIGN_OR_RETURN(r->final_radius, in->NextDouble());
  WCOP_ASSIGN_OR_RETURN(r->degraded, in->NextBool());
  WCOP_ASSIGN_OR_RETURN(std::string_view reason, in->NextBlob());
  r->degraded_reason.assign(reason);
  return Status::OK();
}

}  // namespace

void HashWcopOptions(Fnv1a* h, const WcopOptions& o) {
  h->Double(o.trash_fraction);
  h->U64(o.trash_max_override);
  h->Double(o.radius_max);
  h->Double(o.radius_growth);
  h->U64(o.max_clustering_rounds);
  h->U64(static_cast<uint64_t>(o.distance.kind));
  h->Double(o.distance.tolerance.dx);
  h->Double(o.distance.tolerance.dy);
  h->Double(o.distance.tolerance.dt);
  h->Double(o.distance.edr_scale);
  h->U64(o.seed);
  h->U64(static_cast<uint64_t>(o.pivot_policy));
  h->U64(static_cast<uint64_t>(o.clustering_algo));
  h->U64(static_cast<uint64_t>(o.delta_policy));
}

uint64_t DatasetFingerprint(const Dataset& dataset) {
  Fnv1a h;
  h.U64(dataset.size());
  for (const Trajectory& t : dataset.trajectories()) {
    h.I64(t.id());
    h.I64(t.object_id());
    h.I64(t.parent_id());
    h.I64(t.requirement().k);
    h.Double(t.requirement().delta);
    h.U64(t.size());
    for (const Point& p : t.points()) {
      h.Double(p.x);
      h.Double(p.y);
      h.Double(p.t);
    }
  }
  return h.value();
}

uint64_t WcopOptionsFingerprint(const WcopOptions& options) {
  Fnv1a h;
  HashWcopOptions(&h, options);
  return h.value();
}

uint64_t WcopBConfigFingerprint(const Dataset& dataset,
                                const WcopOptions& options,
                                const WcopBOptions& b_options) {
  Fnv1a h(DatasetFingerprint(dataset));
  h.U64(0x57434f42ULL);  // "WCOB" domain separator
  HashWcopOptions(&h, options);
  h.Double(b_options.distort_max);
  h.U64(b_options.step);
  h.Double(b_options.w1);
  h.Double(b_options.w2);
  h.U64(b_options.max_edit_size);
  h.U64(static_cast<uint64_t>(b_options.edit_policy));
  h.Double(b_options.proportional_strength);
  return h.value();
}

void AppendAnonymizationResult(std::string* out,
                               const AnonymizationResult& result) {
  AppendWordToken(out, "ntraj");
  AppendUintToken(out, result.sanitized.size());
  EndLine(out);
  for (const Trajectory& t : result.sanitized.trajectories()) {
    store::AppendTrajectoryRecord(out, t);
  }
  AppendWordToken(out, "ntrashed");
  AppendUintToken(out, result.trashed_ids.size());
  for (const int64_t id : result.trashed_ids) {
    AppendIntToken(out, id);
  }
  EndLine(out);
  AppendWordToken(out, "nclusters");
  AppendUintToken(out, result.clusters.size());
  EndLine(out);
  for (const AnonymityCluster& c : result.clusters) {
    AppendWordToken(out, "cluster");
    AppendUintToken(out, c.pivot);
    AppendIntToken(out, c.k);
    AppendDoubleToken(out, c.delta);
    AppendUintToken(out, c.members.size());
    for (const size_t m : c.members) {
      AppendUintToken(out, m);
    }
    EndLine(out);
  }
  AppendReport(out, result.report);
}

Status ReadAnonymizationResult(codec::TokenScanner* in,
                               AnonymizationResult* result) {
  WCOP_RETURN_IF_ERROR(in->Expect("ntraj"));
  WCOP_ASSIGN_OR_RETURN(size_t ntraj, in->NextCount());
  std::vector<Trajectory> sanitized;
  sanitized.reserve(ntraj);
  for (size_t i = 0; i < ntraj; ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t, store::ParseTrajectoryRecord(in));
    sanitized.push_back(std::move(t));
  }
  result->sanitized = Dataset(std::move(sanitized));
  WCOP_RETURN_IF_ERROR(in->Expect("ntrashed"));
  WCOP_ASSIGN_OR_RETURN(size_t ntrashed, in->NextCount());
  result->trashed_ids.reserve(ntrashed);
  for (size_t i = 0; i < ntrashed; ++i) {
    WCOP_ASSIGN_OR_RETURN(int64_t id, in->NextInt());
    result->trashed_ids.push_back(id);
  }
  WCOP_RETURN_IF_ERROR(in->Expect("nclusters"));
  WCOP_ASSIGN_OR_RETURN(size_t nclusters, in->NextCount());
  result->clusters.reserve(nclusters);
  for (size_t i = 0; i < nclusters; ++i) {
    AnonymityCluster c;
    WCOP_RETURN_IF_ERROR(in->Expect("cluster"));
    WCOP_ASSIGN_OR_RETURN(c.pivot, in->NextUint());
    WCOP_ASSIGN_OR_RETURN(int64_t k, in->NextInt());
    c.k = static_cast<int>(k);
    WCOP_ASSIGN_OR_RETURN(c.delta, in->NextDouble());
    WCOP_ASSIGN_OR_RETURN(size_t nmembers, in->NextCount());
    c.members.reserve(nmembers);
    for (size_t m = 0; m < nmembers; ++m) {
      WCOP_ASSIGN_OR_RETURN(size_t member, in->NextUint());
      c.members.push_back(member);
    }
    result->clusters.push_back(std::move(c));
  }
  return ReadReport(in, &result->report);
}

void AppendCounters(std::string* out, const CounterList& counters) {
  AppendWordToken(out, "ncounters");
  AppendUintToken(out, counters.size());
  EndLine(out);
  for (const auto& [name, value] : counters) {
    AppendWordToken(out, "counter");
    AppendBlobToken(out, name);
    AppendUintToken(out, value);
    EndLine(out);
  }
}

Status ReadCounters(codec::TokenScanner* in, CounterList* counters) {
  WCOP_RETURN_IF_ERROR(in->Expect("ncounters"));
  WCOP_ASSIGN_OR_RETURN(size_t n, in->NextCount());
  counters->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WCOP_RETURN_IF_ERROR(in->Expect("counter"));
    WCOP_ASSIGN_OR_RETURN(std::string_view name, in->NextBlob());
    WCOP_ASSIGN_OR_RETURN(uint64_t value, in->NextUint());
    counters->emplace_back(std::string(name), value);
  }
  return Status::OK();
}

void AppendEndMarker(std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "end %020" PRIu64 "\n",
                static_cast<uint64_t>(out->size() + kEndMarkerSize));
  out->append(buf);
}

Status CheckEndMarker(codec::TokenScanner* in, size_t payload_size) {
  WCOP_RETURN_IF_ERROR(in->Expect("end"));
  WCOP_ASSIGN_OR_RETURN(uint64_t total, in->NextUint());
  if (total != payload_size) {
    return Status::DataLoss("checkpoint end marker records " +
                            std::to_string(total) + " bytes, payload has " +
                            std::to_string(payload_size));
  }
  return Status::OK();
}

std::string EncodeWcopBCheckpoint(const WcopBCheckpoint& checkpoint) {
  std::string out;
  AppendWordToken(&out, "wcop-b-checkpoint");
  AppendUintToken(&out, kWcopBCheckpointVersion);
  EndLine(&out);
  AppendWordToken(&out, "fingerprint");
  AppendUintToken(&out, checkpoint.fingerprint);
  EndLine(&out);
  AppendWordToken(&out, "state");
  AppendUintToken(&out, checkpoint.next_edit_size);
  AppendUintToken(&out, checkpoint.terminal ? 1 : 0);
  AppendUintToken(&out, checkpoint.bound_satisfied ? 1 : 0);
  AppendUintToken(&out, checkpoint.final_edit_size);
  EndLine(&out);
  AppendWordToken(&out, "nrounds");
  AppendUintToken(&out, checkpoint.rounds.size());
  EndLine(&out);
  for (const WcopBRound& r : checkpoint.rounds) {
    AppendWordToken(&out, "round");
    AppendUintToken(&out, r.edit_size);
    AppendDoubleToken(&out, r.ttd);
    AppendDoubleToken(&out, r.editing_distortion);
    AppendDoubleToken(&out, r.total_distortion);
    AppendUintToken(&out, r.num_clusters);
    AppendUintToken(&out, r.trashed);
    EndLine(&out);
  }
  AppendAnonymizationResult(&out, checkpoint.anonymization);
  AppendCounters(&out, checkpoint.counters);
  AppendEndMarker(&out);
  return out;
}

Result<WcopBCheckpoint> DecodeWcopBCheckpoint(std::string_view payload) {
  codec::TokenScanner in(payload, "wcop-b checkpoint");
  WCOP_RETURN_IF_ERROR(in.Expect("wcop-b-checkpoint"));
  WCOP_ASSIGN_OR_RETURN(uint64_t version, in.NextUint());
  if (version != kWcopBCheckpointVersion) {
    return Status::FailedPrecondition(
        "wcop-b checkpoint version " + std::to_string(version) +
        " unsupported (expected " + std::to_string(kWcopBCheckpointVersion) +
        ")");
  }
  WcopBCheckpoint checkpoint;
  WCOP_RETURN_IF_ERROR(in.Expect("fingerprint"));
  WCOP_ASSIGN_OR_RETURN(checkpoint.fingerprint, in.NextUint());
  WCOP_RETURN_IF_ERROR(in.Expect("state"));
  WCOP_ASSIGN_OR_RETURN(checkpoint.next_edit_size, in.NextUint());
  WCOP_ASSIGN_OR_RETURN(checkpoint.terminal, in.NextBool());
  WCOP_ASSIGN_OR_RETURN(checkpoint.bound_satisfied, in.NextBool());
  WCOP_ASSIGN_OR_RETURN(checkpoint.final_edit_size, in.NextUint());
  WCOP_RETURN_IF_ERROR(in.Expect("nrounds"));
  WCOP_ASSIGN_OR_RETURN(size_t nrounds, in.NextCount());
  checkpoint.rounds.reserve(nrounds);
  for (size_t i = 0; i < nrounds; ++i) {
    WcopBRound r;
    WCOP_RETURN_IF_ERROR(in.Expect("round"));
    WCOP_ASSIGN_OR_RETURN(r.edit_size, in.NextUint());
    WCOP_ASSIGN_OR_RETURN(r.ttd, in.NextDouble());
    WCOP_ASSIGN_OR_RETURN(r.editing_distortion, in.NextDouble());
    WCOP_ASSIGN_OR_RETURN(r.total_distortion, in.NextDouble());
    WCOP_ASSIGN_OR_RETURN(r.num_clusters, in.NextUint());
    WCOP_ASSIGN_OR_RETURN(r.trashed, in.NextUint());
    checkpoint.rounds.push_back(r);
  }
  WCOP_RETURN_IF_ERROR(ReadAnonymizationResult(&in, &checkpoint.anonymization));
  WCOP_RETURN_IF_ERROR(ReadCounters(&in, &checkpoint.counters));
  WCOP_RETURN_IF_ERROR(CheckEndMarker(&in, payload.size()));
  return checkpoint;
}

}  // namespace wcop
