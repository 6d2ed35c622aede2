#include "data/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_map>

#include "model/database_builder.h"
#include "util/math.h"
#include "util/rng.h"

namespace veritas {

namespace {

std::string ItemName(std::size_t i) { return "item" + std::to_string(i); }
std::string SourceName(std::size_t j) { return "src" + std::to_string(j); }

// Accuracies drawn from N(mean, sd), clamped away from 0/1 so the generated
// data stays informative.
std::vector<double> DrawAccuracies(std::size_t n, double mean, double sd,
                                   Rng* rng) {
  std::vector<double> out(n);
  for (double& a : out) a = Clamp(rng->Normal(mean, sd), 0.05, 0.99);
  return out;
}

// Draws the value an independent source reports for an item: the true value
// with probability `accuracy`, otherwise a uniformly chosen false value.
std::string DrawValue(std::size_t item, double accuracy,
                      std::size_t max_false_claims, Rng* rng) {
  if (max_false_claims == 0 || rng->Bernoulli(accuracy)) {
    return SyntheticTrueValue(item);
  }
  return SyntheticFalseValue(item, rng->UniformIndex(max_false_claims));
}

// Assignment of copier sources to independent parents. Copiers replicate
// their parent's claims wherever the parent voted — the error-correlation
// mechanism behind the confidently-wrong items of real fused data.
struct CopyPlan {
  std::size_t num_independent = 0;
  // parent[j] is the parent of source j (only meaningful for copiers,
  // j >= num_independent).
  std::vector<std::size_t> parent;
  // Recorded votes (item -> value) of every source that acts as a parent.
  std::unordered_map<std::size_t,
                     std::unordered_map<std::size_t, std::string>>
      parent_votes;

  bool IsCopier(std::size_t source) const { return source >= num_independent; }
};

CopyPlan MakeCopyPlan(std::size_t num_sources, double copier_fraction,
                      Rng* rng) {
  CopyPlan plan;
  std::size_t copiers = static_cast<std::size_t>(
      std::floor(copier_fraction * static_cast<double>(num_sources)));
  copiers = std::min(copiers, num_sources - 1);  // Keep >= 1 independent.
  plan.num_independent = num_sources - copiers;
  plan.parent.assign(num_sources, 0);
  for (std::size_t j = plan.num_independent; j < num_sources; ++j) {
    plan.parent[j] = rng->UniformIndex(plan.num_independent);
    plan.parent_votes.emplace(plan.parent[j],
                              std::unordered_map<std::size_t, std::string>());
  }
  return plan;
}

// Emits one vote for (source, item): copiers replay the parent's value when
// available, everyone else draws independently. Parents record their votes.
// When `log` is non-null every accepted observation is recorded in emission
// order (timestamps are stamped later, see StampStream).
void EmitVote(DatabaseBuilder* builder, CopyPlan* plan, std::size_t source,
              std::size_t item, double accuracy,
              std::size_t max_false_claims, Rng* rng,
              std::vector<StreamObservation>* log) {
  std::string value;
  bool copied = false;
  if (plan->IsCopier(source)) {
    const auto parent_it = plan->parent_votes.find(plan->parent[source]);
    if (parent_it != plan->parent_votes.end()) {
      const auto vote_it = parent_it->second.find(item);
      if (vote_it != parent_it->second.end()) {
        value = vote_it->second;
        copied = true;
      }
    }
  }
  if (!copied) {
    value = DrawValue(item, accuracy, max_false_claims, rng);
  }
  auto recorder = plan->parent_votes.find(source);
  if (recorder != plan->parent_votes.end()) {
    recorder->second.emplace(item, value);
  }
  std::string source_name = SourceName(source);
  std::string item_name = ItemName(item);
  const Status st = builder->AddObservation(source_name, item_name, value);
  assert(st.ok());
  (void)st;
  if (log != nullptr) {
    log->push_back(StreamObservation{std::move(source_name),
                                     std::move(item_name), std::move(value),
                                     0.0});
  }
}

// Ensures every item exists in the builder with at least one vote, and
// (optionally) that the true value appears among the claims.
void PatchCoverage(DatabaseBuilder* builder, std::size_t num_items,
                   std::size_t num_sources, bool ensure_true_claim, Rng* rng,
                   std::vector<StreamObservation>* log) {
  const Database snapshot = builder->Build();
  for (std::size_t i = 0; i < num_items; ++i) {
    const auto found = snapshot.FindItem(ItemName(i));
    bool needs_true = ensure_true_claim;
    if (found.ok()) {
      if (needs_true) {
        needs_true =
            !snapshot.FindClaim(found.value(), SyntheticTrueValue(i)).ok();
      }
      if (!needs_true) continue;
    }
    // Give the item a truthful vote from a random source (retry a few times
    // in case that source already voted falsely on the item — the builder's
    // last-write-wins semantics would silently overwrite that vote and
    // change the generated dataset, so probe first).
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t j = rng->UniformIndex(num_sources);
      if (builder->WouldRevise(SourceName(j), ItemName(i),
                               SyntheticTrueValue(i))) {
        continue;
      }
      std::string source_name = SourceName(j);
      std::string item_name = ItemName(i);
      std::string value = SyntheticTrueValue(i);
      const Status st = builder->AddObservation(source_name, item_name, value);
      assert(st.ok());
      (void)st;
      if (log != nullptr) {
        log->push_back(StreamObservation{std::move(source_name),
                                         std::move(item_name),
                                         std::move(value), 0.0});
      }
      break;
    }
  }
}

// Builds the ground truth: every item whose true value appears among its
// claims gets that claim marked true.
GroundTruth BuildTruth(const Database& db) {
  GroundTruth truth(db);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    // Generated item names are "item<k>"; recover k to form the true value.
    const std::string& name = db.item(i).name;
    const std::size_t index = std::stoul(name.substr(4));
    const auto claim = db.FindClaim(i, SyntheticTrueValue(index));
    if (claim.ok()) {
      const Status st = truth.Set(db, i, claim.value());
      assert(st.ok());
      (void)st;
    }
  }
  return truth;
}

// Item index k from a generated item name "item<k>".
std::size_t ItemIndexOf(const std::string& name) {
  return std::stoul(name.substr(4));
}

// Appends late corrective re-observations to the log *and* the builder:
// randomly chosen earlier observations are repeated with the item's true
// value — a last-write-wins revision when the original vote was false, an
// idempotent duplicate otherwise. Draws come from the stream RNG so the
// fraction-0 path leaves the generated database untouched.
void ApplyRevisions(DatabaseBuilder* builder,
                    std::vector<StreamObservation>* log,
                    double revision_fraction, Rng* stream_rng) {
  if (revision_fraction <= 0.0 || log->empty()) return;
  const std::size_t original = log->size();
  const std::size_t count = static_cast<std::size_t>(
      std::floor(revision_fraction * static_cast<double>(original)));
  for (std::size_t r = 0; r < count; ++r) {
    const StreamObservation& past = (*log)[stream_rng->UniformIndex(original)];
    StreamObservation corrected{past.source, past.item,
                                SyntheticTrueValue(ItemIndexOf(past.item)),
                                0.0};
    const Status st = builder->AddObservation(corrected.source, corrected.item,
                                              corrected.value);
    assert(st.ok());
    (void)st;
    log->push_back(std::move(corrected));
  }
}

// Stamps strictly increasing timestamps t_k = (k + 0.5 u_k) / N onto the log
// (u_k uniform in [0,1)), so sorting by timestamp reproduces emission order
// exactly — replaying the stream builds a database with identical ids. The
// jitter comes from a *separate* RNG so stamping never perturbs the
// generator's own draw sequence.
void StampStream(std::vector<StreamObservation>* log, Rng* stream_rng) {
  const double n = static_cast<double>(log->size());
  for (std::size_t k = 0; k < log->size(); ++k) {
    (*log)[k].timestamp =
        (static_cast<double>(k) + 0.5 * stream_rng->Uniform()) / n;
  }
}

// Truth disclosures for every item whose true claim exists, each at an
// independent uniform timestamp — deliberately uncorrelated with the item's
// first observation so some truths precede their items in the stream.
std::vector<StreamTruth> BuildTruthStream(const Database& db,
                                          const GroundTruth& truth,
                                          Rng* stream_rng) {
  std::vector<StreamTruth> out;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    if (!truth.Knows(i)) continue;
    out.push_back(StreamTruth{db.item(i).name,
                              SyntheticTrueValue(ItemIndexOf(db.item(i).name)),
                              stream_rng->Uniform()});
  }
  return out;
}

// A copier's effective accuracy is (mostly) its parent's: report that in
// true_accuracies so tests comparing estimated vs true accuracies stay
// meaningful.
void InheritCopierAccuracies(const CopyPlan& plan,
                             std::vector<double>* accuracies) {
  for (std::size_t j = plan.num_independent; j < accuracies->size(); ++j) {
    (*accuracies)[j] = (*accuracies)[plan.parent[j]];
  }
}

// ---------------------------------------------------------------------------
// Spec-driven generation.
// ---------------------------------------------------------------------------

// Reads generator params from the spec's string map, tracking which keys were
// consumed so a typo'd key is an error instead of a silent default.
class ParamReader {
 public:
  explicit ParamReader(
      const std::unordered_map<std::string, std::string>& params)
      : params_(params) {}

  Result<double> GetDouble(const std::string& key, double fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.insert(key);
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      return Status::InvalidArgument("param " + key + ": not a number: " +
                                     it->second);
    }
    return v;
  }

  Result<std::size_t> GetSize(const std::string& key, std::size_t fallback) {
    VERITAS_ASSIGN_OR_RETURN(double v,
                             GetDouble(key, static_cast<double>(fallback)));
    if (v < 0.0 || v != std::floor(v)) {
      return Status::InvalidArgument("param " + key +
                                     ": not a non-negative integer");
    }
    return static_cast<std::size_t>(v);
  }

  Result<bool> GetBool(const std::string& key, bool fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.insert(key);
    if (it->second == "true" || it->second == "1") return true;
    if (it->second == "false" || it->second == "0") return false;
    return Status::InvalidArgument("param " + key + ": not a bool: " +
                                   it->second);
  }

  /// InvalidArgument naming the first unconsumed key, OkStatus when all keys
  /// were read by the generator.
  Status CheckAllConsumed() const {
    for (const auto& [key, value] : params_) {
      if (consumed_.count(key) == 0) {
        return Status::InvalidArgument("unknown generator param: " + key);
      }
    }
    return Status::OK();
  }

 private:
  const std::unordered_map<std::string, std::string>& params_;
  std::set<std::string> consumed_;
};

// Shared dense/longtail knobs (accuracy distribution, claims, stream).
template <typename Config>
Status ReadCommonParams(ParamReader* reader, Config* config) {
  VERITAS_ASSIGN_OR_RETURN(
      config->accuracy_mean,
      reader->GetDouble("accuracy_mean", config->accuracy_mean));
  VERITAS_ASSIGN_OR_RETURN(config->accuracy_sd,
                           reader->GetDouble("accuracy_sd",
                                             config->accuracy_sd));
  VERITAS_ASSIGN_OR_RETURN(
      config->max_false_claims,
      reader->GetSize("max_false_claims", config->max_false_claims));
  VERITAS_ASSIGN_OR_RETURN(
      config->copier_fraction,
      reader->GetDouble("copier_fraction", config->copier_fraction));
  VERITAS_ASSIGN_OR_RETURN(
      config->ensure_true_claim,
      reader->GetBool("ensure_true_claim", config->ensure_true_claim));
  VERITAS_ASSIGN_OR_RETURN(config->emit_stream,
                           reader->GetBool("emit_stream",
                                           config->emit_stream));
  VERITAS_ASSIGN_OR_RETURN(
      config->revision_fraction,
      reader->GetDouble("revision_fraction", config->revision_fraction));
  return Status::OK();
}

// Fills the report fields every generator shares by scanning the built
// database once: vote totals, contested-item count, heaviest coverage.
void FillReportFromDatabase(const Database& db, GenerationReport* report) {
  if (report == nullptr) return;
  report->num_items = db.num_items();
  report->num_sources = db.num_sources();
  std::size_t votes = 0;
  std::size_t contested = 0;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    votes += db.item_votes(i).size();
    if (db.num_claims(i) > 1) ++contested;
  }
  report->num_observations = votes;
  report->contested_items = contested;
  std::size_t max_degree = 0;
  for (SourceId s = 0; s < db.num_sources(); ++s) {
    max_degree = std::max(max_degree, db.source_degree(s));
  }
  report->max_source_coverage =
      db.num_items() == 0
          ? 0.0
          : static_cast<double>(max_degree) /
                static_cast<double>(db.num_items());
}

// True accuracies measured from the built database: the fraction of a
// source's votes that endorse the item's true claim (exact, and robust to
// the construction's last-write-wins overwrites).
std::vector<double> MeasureAccuracies(const Database& db,
                                      const GroundTruth& truth) {
  std::vector<double> hits(db.num_sources(), 0.0);
  std::vector<double> totals(db.num_sources(), 0.0);
  for (ItemId i = 0; i < db.num_items(); ++i) {
    const ClaimIndex t = truth.TrueClaim(i);
    for (const ItemVote& iv : db.item_votes(i)) {
      totals[iv.source] += 1.0;
      if (t != kInvalidClaim && iv.claim == t) hits[iv.source] += 1.0;
    }
  }
  std::vector<double> out(db.num_sources(), 1.0);
  for (SourceId s = 0; s < db.num_sources(); ++s) {
    if (totals[s] > 0.0) out[s] = hits[s] / totals[s];
  }
  return out;
}

// The million-item long-tail shape. Structure:
//  * `head_sources` heads: head j votes the true value on every item with
//    i % heads == j, so the heads jointly cover 100% of items and any
//    lookahead ripple through a head's accuracy touches the whole database.
//  * every non-hot item additionally gets `base_votes` agreeing true votes
//    from hash-assigned tail sources: single-claim items, zero entropy,
//    excluded from candidate scans.
//  * `hot_items` evenly strided items are contested: all heads vote on them
//    in an exactly balanced true/false split (head accuracies are clamped
//    equal, so the heads cancel), plus one dedicated true-contester and one
//    false-contester source whose *degrees* are chosen so the fused
//    log-odds gap ramps linearly over (0, max_hot_logit] across the hot
//    set. That yields a continuous spectrum of item entropies from ~ln 2
//    down. The default ramp is shallow enough that no hot item's
//    branch-and-bound gain bound falls below the best gains — every
//    candidate pays its full lookahead, so scan cost is the bottleneck;
//    steeper ramps (larger max_hot_logit) hand most of the work to the
//    pruner instead.
// No per-item database snapshots anywhere: construction is a fixed number
// of streaming passes, and coverage/true-claim presence hold by design.
struct ScaledLongTailConfig {
  std::size_t num_items = 100000;
  std::size_t num_sources = 10000;
  std::size_t head_sources = 8;
  std::size_t base_votes = 2;
  std::size_t hot_items = 512;
  std::size_t contester_degree = 30;
  double max_hot_logit = 0.4;
  std::uint64_t seed = 42;
  bool emit_stream = false;
};

Result<SyntheticDataset> GenerateScaledLongTail(
    const ScaledLongTailConfig& config, GenerationReport* report) {
  const std::size_t n = config.num_items;
  const std::size_t m = config.num_sources;
  const std::size_t heads = config.head_sources;
  if (n < 16) {
    return Status::InvalidArgument("scaled_longtail: num_items must be >= 16");
  }
  if (heads < 2 || heads % 2 != 0) {
    return Status::InvalidArgument(
        "scaled_longtail: head_sources must be even and >= 2");
  }
  if (config.base_votes < 1) {
    return Status::InvalidArgument("scaled_longtail: base_votes must be >= 1");
  }
  if (config.contester_degree < 2) {
    return Status::InvalidArgument(
        "scaled_longtail: contester_degree must be >= 2");
  }
  if (config.max_hot_logit <= 0.0) {
    return Status::InvalidArgument(
        "scaled_longtail: max_hot_logit must be > 0");
  }
  if (m < heads + 3) {
    return Status::InvalidArgument(
        "scaled_longtail: num_sources must exceed head_sources + 2");
  }
  // Contested items: capped so the tail stays the bulk of the database and
  // every hot item gets its two dedicated contester sources with at least
  // one source left for base votes.
  std::size_t hot = std::min(config.hot_items, n / 2);
  hot = std::min(hot, (m - heads - 1) / 2);
  hot = std::max<std::size_t>(hot, 1);
  const std::size_t stride = n / hot;  // >= 2 by the n/2 cap.
  const auto is_hot = [&](std::size_t i) {
    return i % stride == 0 && i / stride < hot;
  };
  const auto hot_id = [&](std::size_t r) { return r * stride; };
  const std::size_t contester_base = heads;          // [heads, heads + 2*hot)
  const std::size_t tail_base = heads + 2 * hot;     // [tail_base, m)
  const std::size_t num_tail = m - tail_base;

  Rng rng(config.seed);
  Rng stream_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<StreamObservation> log;
  std::vector<StreamObservation>* log_ptr =
      config.emit_stream ? &log : nullptr;

  DatabaseBuilder builder;
  const auto emit = [&](std::size_t source, std::size_t item,
                        std::string value) {
    std::string source_name = SourceName(source);
    std::string item_name = ItemName(item);
    const Status st = builder.AddObservation(source_name, item_name, value);
    assert(st.ok());
    (void)st;
    if (log_ptr != nullptr) {
      log_ptr->push_back(StreamObservation{std::move(source_name),
                                           std::move(item_name),
                                           std::move(value), 0.0});
    }
  };

  // Pass 1 — head coverage: head j votes true on every item i % heads == j.
  // Hot items are covered too; the conflict pass below revises those votes
  // (builder semantics: last write wins), so each head still holds exactly
  // one vote per covered item.
  for (std::size_t j = 0; j < heads; ++j) {
    for (std::size_t i = j; i < n; i += heads) {
      emit(j, i, SyntheticTrueValue(i));
    }
  }

  // Pass 2 — base votes: every tail item gets `base_votes` agreeing true
  // votes from hash-spread tail sources. Hot items are skipped — their
  // claim balance is owned entirely by the heads and contesters.
  for (std::size_t i = 0; i < n; ++i) {
    if (is_hot(i)) continue;
    for (std::size_t t = 0; t < config.base_votes; ++t) {
      const std::size_t src =
          tail_base + (i * 2654435761ULL + t * 1000003ULL) % num_tail;
      emit(src, i, SyntheticTrueValue(i));
    }
  }

  // Pass 3 — contesters: hot item r gets one true vote from source
  // contester_base + 2r and one false vote from contester_base + 2r + 1.
  // The true contester's degree is inflated (forced extra true votes on the
  // items following r's) so its fused accuracy — and with it the item's
  // log-odds gap — ramps with r. Contester sources are unique per hot item,
  // so a lookahead pin's (large) shift of a contester accuracy ripples only
  // into that contester's zero-entropy coverage, never into other hot items.
  const std::size_t d_false = config.contester_degree;
  std::vector<std::size_t> head_order(heads);
  for (std::size_t r = 0; r < hot; ++r) {
    const std::size_t item = hot_id(r);
    const double logit = config.max_hot_logit * static_cast<double>(r + 1) /
                         static_cast<double>(hot);
    const std::size_t d_true = std::max<std::size_t>(
        d_false + 1,
        static_cast<std::size_t>(
            std::llround(static_cast<double>(d_false) * std::exp(logit))));
    const std::size_t src_true = contester_base + 2 * r;
    const std::size_t src_false = contester_base + 2 * r + 1;
    // Forced-degree filler votes: true votes on the tail items after `item`.
    std::size_t cursor = item + 1;
    const auto next_tail_item = [&] {
      while (is_hot(cursor % n)) ++cursor;
      return cursor++ % n;
    };
    for (std::size_t q = 0; q + 1 < d_true; ++q) {
      const std::size_t filler = next_tail_item();
      emit(src_true, filler, SyntheticTrueValue(filler));
    }
    for (std::size_t q = 0; q + 1 < d_false; ++q) {
      const std::size_t filler = next_tail_item();
      emit(src_false, filler, SyntheticTrueValue(filler));
    }
    emit(src_true, item, SyntheticTrueValue(item));
    emit(src_false, item, SyntheticFalseValue(item, 0));

    // Pass 3b — head conflict: all heads vote on the hot item, exactly half
    // of them (a seeded random subset) falsely. Head accuracies all clamp to
    // the same ceiling, so the balanced split cancels and the contesters
    // alone set the item's fused log-odds gap.
    std::iota(head_order.begin(), head_order.end(), 0);
    rng.Shuffle(&head_order);
    for (std::size_t p = 0; p < heads; ++p) {
      const bool vote_false = p < heads / 2;
      emit(head_order[p], item,
           vote_false ? SyntheticFalseValue(item, 0)
                      : SyntheticTrueValue(item));
    }
  }

  SyntheticDataset out;
  out.db = builder.Build();
  out.truth = BuildTruth(out.db);
  out.true_accuracies = MeasureAccuracies(out.db, out.truth);
  if (config.emit_stream) {
    StampStream(&log, &stream_rng);
    out.stream = std::move(log);
    out.truth_stream = BuildTruthStream(out.db, out.truth, &stream_rng);
  }
  if (report != nullptr) {
    report->generator = "scaled_longtail";
    FillReportFromDatabase(out.db, report);
    report->head_sources = heads;
    report->notes = "hot_items=" + std::to_string(hot) +
                    " stride=" + std::to_string(stride) +
                    " tail_sources=" + std::to_string(num_tail);
  }
  return out;
}

}  // namespace

Result<SyntheticDataset> GenerateFromSpec(const DatasetSpec& spec,
                                          GenerationReport* report) {
  if (spec.num_items == 0 || spec.num_sources == 0) {
    return Status::InvalidArgument(
        "DatasetSpec: num_items and num_sources must be > 0");
  }
  ParamReader reader(spec.params);
  SyntheticDataset dataset;
  std::string generator;
  if (spec.shape == "dense") {
    DenseConfig config;
    config.num_items = spec.num_items;
    config.num_sources = spec.num_sources;
    config.seed = spec.seed;
    VERITAS_RETURN_IF_ERROR(ReadCommonParams(&reader, &config));
    VERITAS_ASSIGN_OR_RETURN(config.density,
                             reader.GetDouble("density", config.density));
    VERITAS_RETURN_IF_ERROR(reader.CheckAllConsumed());
    dataset = GenerateDense(config);
    generator = "dense";
  } else if (spec.shape == "longtail") {
    LongTailConfig config;
    config.num_items = spec.num_items;
    config.num_sources = spec.num_sources;
    config.seed = spec.seed;
    VERITAS_RETURN_IF_ERROR(ReadCommonParams(&reader, &config));
    VERITAS_ASSIGN_OR_RETURN(
        config.avg_votes_per_item,
        reader.GetDouble("avg_votes_per_item", config.avg_votes_per_item));
    VERITAS_ASSIGN_OR_RETURN(
        config.pareto_alpha,
        reader.GetDouble("pareto_alpha", config.pareto_alpha));
    VERITAS_ASSIGN_OR_RETURN(
        config.max_coverage_fraction,
        reader.GetDouble("max_coverage_fraction",
                         config.max_coverage_fraction));
    VERITAS_RETURN_IF_ERROR(reader.CheckAllConsumed());
    dataset = GenerateLongTail(config);
    generator = "longtail";
  } else if (spec.shape == "scaled_longtail") {
    ScaledLongTailConfig config;
    config.num_items = spec.num_items;
    config.num_sources = spec.num_sources;
    config.seed = spec.seed;
    VERITAS_ASSIGN_OR_RETURN(
        config.head_sources,
        reader.GetSize("head_sources", config.head_sources));
    VERITAS_ASSIGN_OR_RETURN(config.base_votes,
                             reader.GetSize("base_votes", config.base_votes));
    VERITAS_ASSIGN_OR_RETURN(config.hot_items,
                             reader.GetSize("hot_items", config.hot_items));
    VERITAS_ASSIGN_OR_RETURN(
        config.contester_degree,
        reader.GetSize("contester_degree", config.contester_degree));
    VERITAS_ASSIGN_OR_RETURN(
        config.max_hot_logit,
        reader.GetDouble("max_hot_logit", config.max_hot_logit));
    VERITAS_ASSIGN_OR_RETURN(config.emit_stream,
                             reader.GetBool("emit_stream",
                                            config.emit_stream));
    VERITAS_RETURN_IF_ERROR(reader.CheckAllConsumed());
    if (report != nullptr) report->dataset_name = spec.name;
    return GenerateScaledLongTail(config, report);
  } else {
    return Status::InvalidArgument("DatasetSpec: unknown shape: " +
                                   spec.shape);
  }
  if (report != nullptr) {
    report->generator = generator;
    report->dataset_name = spec.name;
    FillReportFromDatabase(dataset.db, report);
  }
  return dataset;
}

std::string SyntheticTrueValue(std::size_t item_index) {
  std::string out = "T";
  out += std::to_string(item_index);
  return out;
}

std::string SyntheticFalseValue(std::size_t item_index, std::size_t k) {
  std::string out = "F";
  out += std::to_string(item_index);
  out += "_";
  out += std::to_string(k);
  return out;
}

SyntheticDataset GenerateDense(const DenseConfig& config) {
  assert(config.num_items > 0 && config.num_sources > 0);
  Rng rng(config.seed);
  std::vector<double> accuracies = DrawAccuracies(
      config.num_sources, config.accuracy_mean, config.accuracy_sd, &rng);
  CopyPlan plan = MakeCopyPlan(config.num_sources, config.copier_fraction,
                               &rng);

  // The stream RNG is independent of the generator RNG: stamping (and the
  // default revision_fraction = 0) must not shift any generator draw, or
  // every previously generated dataset would change under the same seed.
  Rng stream_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  const bool want_log = config.emit_stream || config.revision_fraction > 0.0;
  std::vector<StreamObservation> log;
  std::vector<StreamObservation>* log_ptr = want_log ? &log : nullptr;

  DatabaseBuilder builder;
  for (std::size_t j = 0; j < config.num_sources; ++j) {
    for (std::size_t i = 0; i < config.num_items; ++i) {
      if (!rng.Bernoulli(config.density)) continue;
      EmitVote(&builder, &plan, j, i, accuracies[j],
               config.max_false_claims, &rng, log_ptr);
    }
  }
  PatchCoverage(&builder, config.num_items, config.num_sources,
                config.ensure_true_claim, &rng, log_ptr);
  ApplyRevisions(&builder, &log, config.revision_fraction, &stream_rng);
  InheritCopierAccuracies(plan, &accuracies);

  SyntheticDataset out;
  out.db = builder.Build();
  out.truth = BuildTruth(out.db);
  out.true_accuracies = std::move(accuracies);
  if (config.emit_stream) {
    StampStream(&log, &stream_rng);
    out.stream = std::move(log);
    out.truth_stream = BuildTruthStream(out.db, out.truth, &stream_rng);
  }
  return out;
}

SyntheticDataset GenerateLongTail(const LongTailConfig& config) {
  assert(config.num_items > 0 && config.num_sources > 0);
  Rng rng(config.seed);
  std::vector<double> accuracies = DrawAccuracies(
      config.num_sources, config.accuracy_mean, config.accuracy_sd, &rng);
  CopyPlan plan = MakeCopyPlan(config.num_sources, config.copier_fraction,
                               &rng);

  // Pareto coverage weights -> per-source vote counts summing (roughly) to
  // the requested total budget.
  std::vector<double> weights(config.num_sources);
  for (double& w : weights) w = rng.Pareto(config.pareto_alpha);
  const double weight_sum =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  const double total_votes =
      config.avg_votes_per_item * static_cast<double>(config.num_items);
  const std::size_t max_cov = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.max_coverage_fraction *
                                  static_cast<double>(config.num_items)));

  Rng stream_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  const bool want_log = config.emit_stream || config.revision_fraction > 0.0;
  std::vector<StreamObservation> log;
  std::vector<StreamObservation>* log_ptr = want_log ? &log : nullptr;

  DatabaseBuilder builder;
  std::vector<std::size_t> pool(config.num_items);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<std::size_t> catalog;
  for (std::size_t j = 0; j < config.num_sources; ++j) {
    std::size_t cov = static_cast<std::size_t>(
        std::llround(total_votes * weights[j] / weight_sum));
    cov = std::min(std::max<std::size_t>(cov, 1), max_cov);
    if (plan.IsCopier(j)) {
      // Long-tail copiers replicate a slice of the parent's *catalog* (the
      // items the parent covers), the way bookstore aggregators resell the
      // same data feed — which is what concentrates correlated errors on
      // the same items in the real Books/Population data.
      const auto& parent_votes = plan.parent_votes.at(plan.parent[j]);
      catalog.clear();
      catalog.reserve(parent_votes.size());
      for (const auto& [item, _] : parent_votes) catalog.push_back(item);
      std::sort(catalog.begin(), catalog.end());  // Determinism.
      rng.Shuffle(&catalog);
      cov = std::min(cov, catalog.size());
      for (std::size_t t = 0; t < cov; ++t) {
        EmitVote(&builder, &plan, j, catalog[t], accuracies[j],
                 config.max_false_claims, &rng, log_ptr);
      }
      continue;
    }
    // Partial Fisher-Yates: pick `cov` distinct items.
    for (std::size_t t = 0; t < cov; ++t) {
      const std::size_t swap_with = t + rng.UniformIndex(pool.size() - t);
      std::swap(pool[t], pool[swap_with]);
      EmitVote(&builder, &plan, j, pool[t], accuracies[j],
               config.max_false_claims, &rng, log_ptr);
    }
  }
  PatchCoverage(&builder, config.num_items, config.num_sources,
                config.ensure_true_claim, &rng, log_ptr);
  ApplyRevisions(&builder, &log, config.revision_fraction, &stream_rng);
  InheritCopierAccuracies(plan, &accuracies);

  SyntheticDataset out;
  out.db = builder.Build();
  out.truth = BuildTruth(out.db);
  out.true_accuracies = std::move(accuracies);
  if (config.emit_stream) {
    StampStream(&log, &stream_rng);
    out.stream = std::move(log);
    out.truth_stream = BuildTruthStream(out.db, out.truth, &stream_rng);
  }
  return out;
}

}  // namespace veritas
