// Synthetic dataset generation.
//
// The paper evaluates on proprietary snapshots (Books from abebooks.com,
// Flights from [21], Population from Wikipedia edit histories) that are not
// redistributable. Section B.2 of the paper itself defines a synthetic
// generator whose defaults "correspond to the characteristics of real
// datasets": source accuracies A(s) ~ N(a_mean, a_sd) and a density d with
// which each source votes on each item. We reproduce that generator
// (GenerateDense) and add a long-tail variant (GenerateLongTail) whose
// power-law source coverage matches the Books/Population characteristics of
// §B.1/Figure 8 (">90% of sources provide information on fewer than 4% of
// data items").
//
// Claims per item are capped (default 2) exactly as in the paper's
// preprocessing ("we consider only those flight and population data items
// that have up to two contesting values"; "the top two author sets per
// book").
#ifndef VERITAS_DATA_SYNTHETIC_H_
#define VERITAS_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/database.h"
#include "model/ground_truth.h"
#include "model/streaming_database.h"
#include "util/result.h"

namespace veritas {

/// A generated database with its (complete, for generated claims) ground
/// truth and the true source accuracies used during generation.
struct SyntheticDataset {
  Database db;
  GroundTruth truth;
  std::vector<double> true_accuracies;
  /// Timestamped observation stream (only when `emit_stream` is set in the
  /// config): every observation the generator emitted, in emission order,
  /// with strictly increasing timestamps in [0, 1). Replaying it in
  /// timestamp order through a DatabaseBuilder / StreamingDatabase
  /// reproduces `db` with identical item/source/claim ids, because the
  /// stamping is order-preserving and builder ids follow first appearance.
  std::vector<StreamObservation> stream;
  /// Ground-truth disclosures with their own (uniform, unordered relative to
  /// the observations) timestamps — some truths arrive before their item's
  /// first observation, which is exactly the deferral case streaming
  /// consumers must handle.
  std::vector<StreamTruth> truth_stream;
};

/// Parameters of the dense generator (§B.2: few sources voting on most
/// items, e.g. the flights datasets).
struct DenseConfig {
  std::size_t num_items = 1000;
  std::size_t num_sources = 38;
  /// Probability that a source votes on an item (the paper's d = 0.4).
  double density = 0.4;
  /// Source accuracy distribution A(s) ~ N(mean, sd), clamped to [0.05,0.99].
  double accuracy_mean = 0.8;
  double accuracy_sd = 0.1;
  /// Distinct false values available per item; total claims per item is at
  /// most max_false_claims + 1.
  std::size_t max_false_claims = 1;
  /// Fraction of sources that copy another (independent) source instead of
  /// observing independently. Copying is the dominant error-correlation
  /// mechanism in the paper's real datasets (see Dong et al. [7], whose
  /// flights/books snapshots the paper reuses); it produces the
  /// confidently-wrong fused items that make feedback valuable. 0 disables.
  double copier_fraction = 0.0;
  /// Force at least one vote for the true value on every item, so ground
  /// truth is always expressible as a claim. Off by default: with realistic
  /// densities the true claim almost always appears anyway, and leaving rare
  /// truth-free items in mirrors real silver standards.
  bool ensure_true_claim = false;
  std::uint64_t seed = 42;
  /// Record the timestamped observation/truth streams in the output (see
  /// SyntheticDataset::stream). Off by default; turning it on does not
  /// change the generated database — timestamps come from a separate RNG.
  bool emit_stream = false;
  /// Fraction of observations re-emitted at the tail of the stream as late
  /// corrective re-observations: the source repeats its vote with the item's
  /// *true* value (a revision when it voted falsely, a duplicate otherwise).
  /// Applied to the database too (last write wins), so > 0 changes the
  /// generated data. 0 disables.
  double revision_fraction = 0.0;
};

/// Generates a dense dataset (the paper's §B.2 generator).
SyntheticDataset GenerateDense(const DenseConfig& config);

/// Parameters of the long-tail generator (Books-/Population-like shapes,
/// §B.1/Figure 8): per-source coverage follows a Pareto distribution, so a
/// few sources cover many items and most cover almost none.
struct LongTailConfig {
  std::size_t num_items = 1263;
  std::size_t num_sources = 894;
  /// Average number of votes each item receives (sets the total vote
  /// budget). Books ~ 19, Population ~ 1.15.
  double avg_votes_per_item = 19.0;
  /// Pareto tail exponent of source coverage; smaller = heavier tail.
  double pareto_alpha = 0.7;
  /// Cap on the fraction of items one source may cover.
  double max_coverage_fraction = 0.5;
  double accuracy_mean = 0.8;
  double accuracy_sd = 0.1;
  std::size_t max_false_claims = 1;
  /// See DenseConfig::copier_fraction.
  double copier_fraction = 0.0;
  bool ensure_true_claim = false;
  std::uint64_t seed = 42;
  /// See DenseConfig::emit_stream / revision_fraction.
  bool emit_stream = false;
  double revision_fraction = 0.0;
};

/// Generates a long-tail dataset.
SyntheticDataset GenerateLongTail(const LongTailConfig& config);

/// A declarative generator request: the shape name selects the generator,
/// the common fields size it, and `params` carries generator-specific knobs
/// as strings (so benchmark drivers and CI configs can pass them through
/// without compiling against each config struct). Unknown param keys are
/// rejected — a typo must not silently fall back to a default.
struct DatasetSpec {
  /// Human-friendly tag used in logs / bench record names.
  std::string name = "synthetic";
  /// Generator: "dense", "longtail", or "scaled_longtail".
  std::string shape = "scaled_longtail";
  std::size_t num_items = 100000;
  std::size_t num_sources = 10000;
  std::uint64_t seed = 42;
  /// Generator-specific parameters, e.g. {{"hot_items", "512"}}.
  /// Keys per shape are documented at GenerateFromSpec.
  std::unordered_map<std::string, std::string> params;
};

/// Metadata the generator reports back about what it actually built
/// (requested sizes are clamped/derived in places; benchmarks record the
/// achieved shape, not the request).
struct GenerationReport {
  std::string generator;
  std::string dataset_name;
  std::size_t num_items = 0;
  std::size_t num_sources = 0;
  std::size_t num_observations = 0;
  /// Items carrying more than one claim (the candidate set of a strategy
  /// scan that excludes singletons).
  std::size_t contested_items = 0;
  /// Head sources (scaled_longtail only): the shared-coverage sources that
  /// couple items across the whole database.
  std::size_t head_sources = 0;
  /// Fraction of items covered by the heaviest single source.
  double max_source_coverage = 0.0;
  /// Free-form diagnostics.
  std::string notes;
};

/// Builds a dataset from a declarative spec. Shapes and their params:
///   "dense"     — GenerateDense. Params: density, accuracy_mean,
///                 accuracy_sd, max_false_claims, copier_fraction,
///                 ensure_true_claim, revision_fraction, emit_stream.
///   "longtail"  — GenerateLongTail. Params: avg_votes_per_item,
///                 pareto_alpha, max_coverage_fraction, plus the dense set
///                 minus density.
///   "scaled_longtail" — the million-item long-tail shape:
///                 a few head sources jointly cover every item (coupling
///                 all items through shared sources), every tail item gets
///                 `base_votes` agreeing votes (zero entropy, excluded from
///                 candidate scans), and `hot_items` contested items carry
///                 two claims whose fused entropy ramps continuously from
///                 ~ln 2 down to ~0 (per-item contester sources with
///                 controlled degrees set the log-odds gap). Built without
///                 any per-item database snapshotting, so it scales to 1M+
///                 items. Params: head_sources (8), base_votes (2),
///                 hot_items (512), contester_degree (30), max_hot_logit
///                 (1.0).
/// Unknown shapes or param keys, and invalid values, return InvalidArgument.
Result<SyntheticDataset> GenerateFromSpec(const DatasetSpec& spec,
                                          GenerationReport* report = nullptr);

/// Name of the true value of item i ("T<i>") — the value the generator's
/// accurate votes use. False values are "F<i>_<k>".
std::string SyntheticTrueValue(std::size_t item_index);
std::string SyntheticFalseValue(std::size_t item_index, std::size_t k);

}  // namespace veritas

#endif  // VERITAS_DATA_SYNTHETIC_H_
