//! GLOVE — Algorithm 1 of §6.1.
//!
//! The algorithm greedily builds k-anonymous groups:
//!
//! 1. compute the fingerprint stretch effort (Eq. 10) between all pairs of
//!    fingerprints;
//! 2. repeatedly take the two not-yet-k-anonymized fingerprints at minimum
//!    effort, merge them (§6.2), and put the merged fingerprint back —
//!    recomputing its efforts to everything still in play — until it hides
//!    at least `k` subscribers;
//! 3. stop when no two under-`k` fingerprints remain.
//!
//! Attaining optimal k-anonymity is NP-hard [Bettini et al., SDM'05]; GLOVE
//! is a polynomial greedy approximation, quadratic in both the number of
//! users and the fingerprint length (§6.3).
//!
//! ### Implementation notes
//!
//! * The pairwise matrix is stored triangularly over an append-only slot
//!   arena as struct-of-arrays pages (`PairPage`): one `f64` value column
//!   and one `u8` tier column per row, so scans touch dense homogeneous
//!   memory. Merged inputs retire, merged outputs append (slots that leave
//!   the game keep an empty, lazily absent page). The arena compacts itself
//!   in place when retired slots dominate, bounding memory at O(active²):
//!   active slots are renumbered first and keep only their active columns,
//!   finished groups follow with empty pages, so no second triangle is
//!   ever allocated and the ledger's arena peak is the true one.
//! * Each active slot caches its row minimum, so one iteration costs O(A)
//!   for extraction plus O(A·n̄²) for the new row (A = active slots) — the
//!   complexity stated in §6.3. Keeping the minima up reads only the cells
//!   that can decide them: after the parallel build, one row-major sweep
//!   over the triangle adds each row's column cells (`j > i`), the only
//!   ones its build walk could not see; after a merge, a stale row first
//!   consults its candidate list (`RowList`: the partners of its smallest
//!   cells at its last full scan, and the smallest value it left out) and
//!   scans the whole active set only when the list cannot decide.
//! * Slots hold whole fingerprints, one `Vec<Sample>` each, in the layout
//!   every other Eq. 10 caller uses: the kernels and merges read them in
//!   place. An input slot borrows the caller's fingerprint (a shard's too:
//!   the sharded engine passes references into the caller's dataset); only
//!   merged groups are owned. Publication moves them and copies only the
//!   inputs it publishes unmerged.
//! * Matrix construction and row recomputation fan out over
//!   [`crate::parallel`], the stand-in for the paper's GPU kernel.
//! * Every pair cell has one life cycle, whatever the mode. It is *seeded*
//!   once at the run's seed tier (see [`Pruning`] and DESIGN.md "Distance
//!   cascade"): the bit-packed popcount signature bound of
//!   [`crate::compact`] (tier 0), the hull bound of
//!   [`crate::stretch::stretch_lower_bound`] (tier 1), or the exact Eq. 10
//!   value (the paper's full-matrix kernel, [`Pruning::Off`]). From then on
//!   one escalation step (`Pricer::escalate`) moves it up the ladder
//!   signature → hull → partial → exact, and only while its bound could
//!   still decide a row minimum. The partial tier is a cutoff-aware,
//!   early-abandoning Eq. 10 evaluation
//!   ([`crate::stretch::fingerprint_stretch_cutoff_resume`]) whose
//!   suffix floors read the hulls the arena already keeps.
//!   [`Pruning::Cascade`] seeds signatures only when fingerprints are long
//!   enough for the filter to pay for itself (`CASCADE_MIN_MEAN_SAMPLES`)
//!   and hull bounds otherwise. Every seed is admissible, so the published
//!   output is byte-identical across modes.
//! * Every walk over a row's bound cells (`cascade_walk`) visits them in
//!   ascending `(bound, partner)` order and stops at the first bound above
//!   the best exact value, so it pays only for what it visits: a walk with
//!   no exact value yet takes its first candidate by a linear argmin, and
//!   only the candidates whose bound is at most the best exact value are
//!   heapified and popped, never fully sorted. A freshly seeded row (the
//!   build and merged-row fills) takes that argmin over its own value
//!   column, so no candidate is made for a cell its walk cannot visit.
//!   Cells keep a saved evaluation prefix (24 bytes beside the 9-byte
//!   value and tier) only in signature-seeded runs, the one mode in which
//!   an evaluation can stop part way.
//! * Hull summaries are maintained *incrementally*: a merge that suppresses
//!   no samples unions the parents' hulls in O(1) instead of rescanning the
//!   merged fingerprint ([`StretchHull::union`]); suppressing merges fall
//!   back to recomputation.
//! * At most one fingerprint can be left with multiplicity < `k` when the
//!   loop exhausts mergeable pairs; [`ResidualPolicy`] decides its fate
//!   (the paper does not specify — see DESIGN.md).
//! * Every published group is checked against its k floor in release
//!   builds too: a group that hides too few subscribers is an error, never
//!   a release.
//! * [`GloveConfig::shard`] routes the run through [`crate::shard`], which
//!   partitions the dataset and runs this loop per shard.

use crate::compact::{signature_lower_bound, CompactSignature, SignatureSpace};
use crate::config::{GloveConfig, Pruning, ResidualPolicy, StretchConfig};
use crate::error::GloveError;
use crate::json_struct;
use crate::ledger::MemoryLedger;
use crate::merge::merge_fingerprints;
use crate::model::{Dataset, Fingerprint, Sample, UserId};
use crate::parallel::par_map;
use crate::policy::KPlan;
use crate::reshape::reshape_suppressed;
use crate::shard::ShardStat;
use crate::stretch::{
    fingerprint_stretch, fingerprint_stretch_cutoff_resume_hulled, stretch_lower_bound,
    StretchEval, StretchHull, StretchProgress,
};
use crate::suppress::SuppressionLedger;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Statistics of one GLOVE run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GloveStats {
    /// Number of pairwise merges performed.
    pub merges: u64,
    /// Number of fingerprint-pair stretch efforts computed *to completion*
    /// (full Eq. 10 evaluations) — the unit of the paper's §6.3 throughput
    /// figure. With pruning on, only pairs no cascade tier could rule out
    /// are counted here; the rest land in `pairs_pruned`.
    pub pairs_computed: u64,
    /// Distinct pairs whose full Eq. 10 evaluation was never needed: some
    /// tier of the admissible distance cascade ruled them out of every row
    /// minimum they participated in (0 under [`Pruning::Off`]). Always
    /// equals `pairs_skipped_tier0 + pairs_skipped_tier1 + pairs_abandoned`,
    /// and `pairs_computed + pairs_pruned` equals the number of pairs the
    /// unpruned kernel would have evaluated.
    pub pairs_pruned: u64,
    /// Pairs dismissed by the tier-0 bit-packed signature bound alone:
    /// their hull bound was never even computed. 0 unless the run seeds
    /// signature bounds, i.e. [`Pruning::Cascade`] with a mean fingerprint
    /// length at or above the engagement gate (below it the hull tier
    /// fields every pair). Pairs involving an already-k-anonymous input
    /// fingerprint are counted here in signature-seeded runs — no tier ever
    /// needs to look at them.
    pub pairs_skipped_tier0: u64,
    /// Pairs dismissed by the tier-1 hull bound: promoted past the
    /// signature tier but never worth starting an exact evaluation.
    pub pairs_skipped_tier1: u64,
    /// Pairs whose exact evaluation was *started* but abandoned early (tier
    /// 2): the partial Eq. 10 mean proved them strictly above every cutoff
    /// they were ever tested against, so the evaluation never ran to
    /// completion. 0 unless the run seeds signature bounds (see
    /// `pairs_skipped_tier0`).
    pub pairs_abandoned: u64,
    /// Per-shard breakdown when the run was sharded (empty for monolithic
    /// runs).
    pub per_shard: Vec<ShardStat>,
    /// Suppression bookkeeping (§7.1); all-zero when suppression is off.
    pub suppressed: SuppressionLedger,
    /// Samples absorbed by the final reshaping pass (§6.2).
    pub reshaped_samples: u64,
    /// Fingerprints (and their subscribers) dropped by
    /// [`ResidualPolicy::Suppress`].
    pub discarded_fingerprints: u64,
    /// Subscribers dropped with those fingerprints.
    pub discarded_users: u64,
    /// Peak memory accounting of the run: arena bytes, the bytes of the
    /// samples its slots refer to and process peak-RSS (for sharded runs,
    /// the largest shard peaks summed, one per worker, RSS excepted — see
    /// [`MemoryLedger::concurrent`]).
    pub ledger: MemoryLedger,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_s: f64,
}

json_struct!(GloveStats {
    merges,
    pairs_computed,
    pairs_pruned,
    pairs_skipped_tier0,
    pairs_skipped_tier1,
    pairs_abandoned,
    per_shard,
    suppressed,
    reshaped_samples,
    discarded_fingerprints,
    discarded_users,
    ledger: "memory",
    elapsed_s,
});

impl GloveStats {
    /// Total pair decisions made: every candidate pair was either evaluated
    /// in full (`pairs_computed`) or dismissed by an admissible cascade
    /// tier (`pairs_pruned`). This is the work the unpruned kernel would
    /// have evaluated exactly, making throughput figures comparable across
    /// pruning configurations.
    pub fn candidate_pairs(&self) -> u64 {
        self.pairs_computed + self.pairs_pruned
    }

    /// Pair-decision throughput in pairs/second — comparable to the paper's
    /// "20–50,000 fingerprint pairs per second" (§6.3). Counts
    /// [`candidate_pairs`](Self::candidate_pairs), not just full
    /// evaluations: under the distance cascade most candidates are resolved
    /// by a cheap admissible bound, and each such resolution is a unit of
    /// useful work the paper's kernel would have spent a full evaluation
    /// on.
    pub fn pairs_per_second(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.candidate_pairs() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Result of a GLOVE run: the anonymized dataset plus run statistics.
#[derive(Debug, Clone)]
pub struct GloveOutput {
    /// The anonymized dataset: every fingerprint hides ≥ `k` subscribers.
    pub dataset: Dataset,
    /// Run statistics.
    pub stats: GloveStats,
}

/// State of a slot in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// Multiplicity < k: participates in merging.
    Active,
    /// Multiplicity ≥ k: finished, waits for publication.
    Done,
    /// Consumed by a merge.
    Retired,
}

/// Cached minimum of a slot's matrix row over *active* partners.
#[derive(Clone, Copy, Debug)]
struct RowMin {
    value: f64,
    partner: usize,
}

const NO_PARTNER: usize = usize::MAX;

impl RowMin {
    /// The minimum of a row with no candidate yet.
    const NONE: RowMin = RowMin {
        value: f64::INFINITY,
        partner: NO_PARTNER,
    };

    /// Folds in an exact effort under the `(value, smaller partner)` rule.
    #[inline]
    fn offer(&mut self, value: f64, partner: usize) {
        if value < self.value || (value == self.value && partner < self.partner) {
            *self = RowMin { value, partner };
        }
    }
}

/// Cell tiers of the distance cascade, in escalation order. A cell only
/// ever moves to a higher tier, and its value is an admissible lower bound
/// on the pair's Eq. 10 effort at every tier below [`TIER_EXACT`].
const TIER_SIG: u8 = 0;
/// The cell holds the hull-derived lower bound (tier 1).
const TIER_HULL: u8 = 1;
/// The cell holds a partial-evaluation lower bound: an exact evaluation was
/// started and abandoned (tier 2, unfinished).
const TIER_PARTIAL: u8 = 2;
/// The cell holds the exact Eq. 10 effort (or `+∞` for cells that can never
/// be read again).
const TIER_EXACT: u8 = 3;

/// One triangular matrix row in struct-of-arrays layout: the value column
/// and the tier column live in separate dense vectors, so bound-only scans
/// stream `f64`s and tier tests stream bytes instead of interleaving both
/// through one encoded cell. The progress column carries the saved prefix
/// of partially evaluated cells so a re-escalated cell resumes its exact
/// scan instead of restarting from sample zero. Only signature-seeded runs
/// (the engaged cascade) abandon evaluations part way, so every other run
/// leaves the column empty: a cell then costs 9 bytes instead of 33.
#[derive(Debug, Clone, Default)]
struct PairPage {
    val: Vec<f64>,
    tier: Vec<u8>,
    prog: Vec<StretchProgress>,
}

impl PairPage {
    /// A row holding the values `val`, every cell at `tier`, with a
    /// progress column only when evaluations can abandon.
    fn new(val: Vec<f64>, tier: u8, abandons: bool) -> Self {
        let len = val.len();
        PairPage {
            val,
            tier: vec![tier; len],
            prog: if abandons {
                vec![StretchProgress::start(); len]
            } else {
                Vec::new()
            },
        }
    }

    /// Keeps only the cells of the ascending columns `cols`, moved down in
    /// place, and gives the rest of the page's memory back.
    fn keep(&mut self, cols: &[usize]) {
        fn keep_column<T: Copy>(column: &mut Vec<T>, cols: &[usize]) {
            if column.is_empty() {
                return;
            }
            for (new, &old) in cols.iter().enumerate() {
                column[new] = column[old];
            }
            column.truncate(cols.len());
            column.shrink_to_fit();
        }
        keep_column(&mut self.val, cols);
        keep_column(&mut self.tier, cols);
        keep_column(&mut self.prog, cols);
    }
}

/// Transition counters of the distance cascade. Counting *transitions*
/// (rather than scanning cell states at the end) keeps the attribution
/// exact across arena compactions, which overwrite dead cells.
///
/// Every created cell ends in exactly one derived bucket:
/// `created = skipped_tier0 + skipped_tier1 + abandoned + exact`, with
/// `exact = exact_from_hull + exact_from_partial` the cells whose full
/// evaluation completed (counted in `GloveStats::pairs_computed`).
#[derive(Debug, Clone, Copy, Default)]
struct CascadeCounters {
    /// Cells created (every pair the full-matrix kernel would evaluate).
    created: u64,
    /// Cells that reached the hull tier, by seed or by promotion.
    hulled: u64,
    /// Cells whose exact evaluation was started and abandoned at least
    /// once.
    entered_partial: u64,
    /// Cells evaluated to completion without an abandonment: exact seeds,
    /// and cells escalated straight from the hull tier.
    exact_from_hull: u64,
    /// Cells evaluated to completion after at least one abandonment.
    exact_from_partial: u64,
}

impl CascadeCounters {
    fn absorb(&mut self, o: CascadeCounters) {
        self.created += o.created;
        self.hulled += o.hulled;
        self.entered_partial += o.entered_partial;
        self.exact_from_hull += o.exact_from_hull;
        self.exact_from_partial += o.exact_from_partial;
    }

    /// Books `cells` new cells seeded at `tier`. A seed counts as having
    /// passed every tier below it, so an exact seed lands in the computed
    /// bucket, never in a skipped one.
    fn seeded(&mut self, tier: u8, cells: u64) {
        self.created += cells;
        if tier >= TIER_HULL {
            self.hulled += cells;
        }
        if tier == TIER_EXACT {
            self.exact_from_hull += cells;
        }
    }

    /// Cells the signature bound dismissed before a hull bound existed.
    fn skipped_tier0(&self) -> u64 {
        self.created - self.hulled
    }

    /// Cells the hull bound dismissed before an exact evaluation started.
    fn skipped_tier1(&self) -> u64 {
        self.hulled - self.entered_partial - self.exact_from_hull
    }

    /// Cells whose started evaluation never ran to completion.
    fn abandoned(&self) -> u64 {
        self.entered_partial - self.exact_from_partial
    }

    /// Cells evaluated to completion.
    fn exact(&self) -> u64 {
        self.exact_from_hull + self.exact_from_partial
    }
}

/// Read/write access to one matrix row, abstracting over rows that live in
/// the arena's triangular pages versus rows still under construction.
trait CellRow {
    fn get(&self, j: usize) -> (f64, u8);
    fn set(&mut self, j: usize, val: f64, tier: u8);
    /// Saved evaluation prefix of the cell, for resumable tier-2 scans.
    /// Only rows of runs with early abandonment have one.
    fn progress(&mut self, j: usize) -> &mut StretchProgress;
}

/// A row under construction (matrix build or merged-row fill), not yet
/// installed in the arena: cell `j` is column `j`.
impl CellRow for PairPage {
    #[inline]
    fn get(&self, j: usize) -> (f64, u8) {
        (self.val[j], self.tier[j])
    }

    #[inline]
    fn set(&mut self, j: usize, val: f64, tier: u8) {
        self.val[j] = val;
        self.tier[j] = tier;
    }

    #[inline]
    fn progress(&mut self, j: usize) -> &mut StretchProgress {
        &mut self.prog[j]
    }
}

/// Page and column of cell `(i, j)` in the triangular matrix:
/// `pages[max(i,j)]` at column `min(i,j)`.
#[inline]
fn tri(i: usize, j: usize) -> (usize, usize) {
    debug_assert_ne!(i, j);
    (i.max(j), i.min(j))
}

/// Row `i` of the installed triangular matrix.
struct TriRow<'a> {
    pages: &'a mut [PairPage],
    i: usize,
}

impl CellRow for TriRow<'_> {
    #[inline]
    fn get(&self, j: usize) -> (f64, u8) {
        let (r, c) = tri(self.i, j);
        self.pages[r].get(c)
    }

    #[inline]
    fn set(&mut self, j: usize, val: f64, tier: u8) {
        let (r, c) = tri(self.i, j);
        self.pages[r].set(c, val, tier);
    }

    #[inline]
    fn progress(&mut self, j: usize) -> &mut StretchProgress {
        let (r, c) = tri(self.i, j);
        self.pages[r].progress(c)
    }
}

/// Partners a row's list keeps for its stale rescans (see [`RowList`]).
/// Chosen on `serve-backfill` at seed 7 (~1,500 active rows per window):
/// 32 partners answered 62 % of its 20,461 stale rescans without a full
/// scan and 64 answered 82 %, but selecting twice the cells in the sweep
/// and in every full scan cost what the extra hits saved (in four
/// alternating traced pairs each length won two), so the shorter list, at
/// half the bytes, stays.
const LIST_LEN: usize = 32;

/// The partners of a row's [`LIST_LEN`] smallest cells at its last full
/// scan, and `floor`, the smallest value it left out. Stored values only
/// rise, a merged slot whose cell enters below `floor` is appended, and
/// compaction remaps the partners, so every active cell the list does not
/// name stays at or above `floor`. A stale row whose smallest listed
/// active exact cell lies strictly below `floor` therefore has its minimum
/// and its whole walk inside the list.
#[derive(Clone, Debug)]
struct RowList {
    partners: Vec<u32>,
    floor: f64,
}

impl RowList {
    /// The list of a row with no full scan yet: it names nothing and takes
    /// no appends, so it never decides a minimum.
    const NONE: RowList = RowList {
        partners: Vec::new(),
        floor: f64::NEG_INFINITY,
    };
}

/// Every how many of a row's cells [`ListBuilder::estimating`] samples.
const LIST_SAMPLE: usize = 16;

/// The smallest values of a sample of a row's cells, for
/// [`ListBuilder::estimating`].
#[derive(Clone, Copy)]
struct Estimate([f64; Estimate::RANK]);

impl Estimate {
    const RANK: usize = (3 * LIST_LEN).div_ceil(2 * LIST_SAMPLE);
    const NONE: Estimate = Estimate([f64::INFINITY; Estimate::RANK]);

    #[inline]
    fn add(&mut self, v: f64) {
        let low = &mut self.0;
        if v < low[Self::RANK - 1] {
            low[Self::RANK - 1] = v;
            low.sort_unstable_by(f64::total_cmp);
        }
    }

    fn builder(&self) -> ListBuilder {
        ListBuilder {
            cells: Vec::new(),
            floor: self.0[Self::RANK - 1],
        }
    }
}

/// Selects a row's [`LIST_LEN`] smallest cells from a stream of offers:
/// offers at or above the running floor are dropped, and a full buffer of
/// `2 · LIST_LEN` keeps its smaller half. Every dropped value lies at or
/// above the floor.
struct ListBuilder {
    cells: Vec<(f64, u32)>,
    floor: f64,
}

impl ListBuilder {
    /// A builder whose first floor is estimated from a sample of every
    /// [`LIST_SAMPLE`]-th cell of the row: the sample value of rank
    /// `1.5 · LIST_LEN / LIST_SAMPLE`, below which about one and a half
    /// lists' worth of cells are expected. Most offers then cost one
    /// comparison. The estimate only decides how much is buffered; a low
    /// one leaves a shorter list, never a wrong one.
    fn estimating(sample: impl Iterator<Item = f64>) -> Self {
        let mut low = Estimate::NONE;
        sample.for_each(|v| low.add(v));
        low.builder()
    }

    /// A builder offered every cell of a row, as `(value, partner)` pairs.
    fn of(cells: impl Iterator<Item = (f64, usize)> + Clone) -> Self {
        let sample = cells.clone().step_by(LIST_SAMPLE).map(|(v, _)| v);
        let mut list = ListBuilder::estimating(sample);
        for (v, j) in cells {
            list.offer(v, j);
        }
        list
    }

    #[inline]
    fn offer(&mut self, value: f64, partner: usize) {
        if value < self.floor {
            self.cells.push((value, partner as u32));
            if self.cells.len() == 2 * LIST_LEN {
                self.cut();
            }
        }
    }

    /// Keeps the `LIST_LEN` smallest cells; the smallest one left out
    /// becomes the floor (every earlier drop lay above it).
    #[cold]
    fn cut(&mut self) {
        if self.cells.len() > LIST_LEN {
            self.cells
                .select_nth_unstable_by(LIST_LEN, |x, y| x.0.total_cmp(&y.0));
            self.floor = self.cells[LIST_LEN].0;
            self.cells.truncate(LIST_LEN);
        }
    }

    fn finish(&mut self) -> RowList {
        self.cut();
        RowList {
            partners: self.cells.iter().map(|&(_, j)| j).collect(),
            floor: self.floor,
        }
    }
}

/// A walk candidate: a cell's stored bound and the partner slot it pairs
/// with. Candidates are visited in ascending `(bound, j)` order under
/// `partial_cmp` on the bound — not `f64::total_cmp`, which orders `-0.0`
/// before `0.0` and would reorder ties the partner index must break.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    bound: f64,
    j: usize,
}

impl Eq for Cand {}

impl Ord for Cand {
    /// Reversed, so that [`BinaryHeap`] — a max-heap — pops the smallest
    /// `(bound, j)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .expect("bounds are finite")
            .then(other.j.cmp(&self.j))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything a pair cell is priced from: the slots' samples, their hull
/// and signature summaries, the stretch parameters and the run's seed
/// tier. Seeding, escalation and the walk live here, so the parallel
/// matrix build and every sequential caller run the same code in every
/// mode.
struct Pricer<'a> {
    /// The fingerprint of every slot, retired ones included until the next
    /// compaction. An input slot borrows the caller's fingerprint; only
    /// merged groups are owned.
    slots: Vec<Cow<'a, Fingerprint>>,
    /// Per-slot hull summaries feeding the tier-1 bound, maintained
    /// incrementally on merge.
    hulls: Vec<StretchHull>,
    /// Per-slot bit-packed signatures feeding the tier-0 bound; empty
    /// unless the run seeds signature bounds.
    sigs: Vec<CompactSignature>,
    cfg: StretchConfig,
    space: SignatureSpace,
    /// The tier every fresh cell is seeded at: [`TIER_SIG`], [`TIER_HULL`]
    /// or [`TIER_EXACT`].
    seed: u8,
}

impl<'a> Pricer<'a> {
    fn new(inputs: &[&'a Fingerprint], config: &GloveConfig, seed: u8) -> Self {
        let space = SignatureSpace::of(&config.stretch);
        let sigs = if seed == TIER_SIG {
            let sig = |f: &&Fingerprint| CompactSignature::of(f, &space);
            inputs.iter().map(sig).collect()
        } else {
            Vec::new()
        };
        Pricer {
            slots: inputs.iter().map(|&f| Cow::Borrowed(f)).collect(),
            hulls: inputs.iter().map(|f| StretchHull::of(f)).collect(),
            sigs,
            cfg: config.stretch,
            space,
            seed,
        }
    }

    /// Evaluations stop part way only in signature-seeded runs (the engaged
    /// cascade), so only their rows carry a progress column.
    fn abandons(&self) -> bool {
        self.seed == TIER_SIG
    }

    /// Appends a merged fingerprint with its hull (and its signature, when
    /// the run seeds signature bounds).
    fn push(&mut self, fp: Fingerprint, hull: StretchHull) {
        if self.abandons() {
            self.sigs.push(CompactSignature::of(&fp, &self.space));
        }
        self.hulls.push(hull);
        self.slots.push(Cow::Owned(fp));
    }

    /// Keeps the slots `order` names, renumbered by their position in it —
    /// the slot side of arena compaction. Fingerprints move; none is copied.
    fn compacted(&mut self, order: &[usize]) {
        let mut old: Vec<Option<Cow<'a, Fingerprint>>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(Some)
            .collect();
        self.slots = order
            .iter()
            .map(|&i| old[i].take().expect("a slot is kept at most once"))
            .collect();
        self.hulls = order.iter().map(|&i| self.hulls[i]).collect();
        if self.abandons() {
            self.sigs = order.iter().map(|&i| self.sigs[i]).collect();
        }
    }

    /// The operands of pair `(i, j)` in canonical orientation, larger slot
    /// first. The saved prefix of an equal-length pair is
    /// direction-specific, so every evaluation of one cell must walk the
    /// directions in the same order regardless of which row triggered it.
    /// The published value is symmetric either way.
    #[inline]
    fn operands(&self, i: usize, j: usize) -> (&Fingerprint, &Fingerprint) {
        let (r, c) = tri(i, j);
        (&self.slots[r], &self.slots[c])
    }

    /// Bytes of the samples the slots refer to, at `size_of::<Sample>()`
    /// each: borrowed inputs, merged groups and retired slots not yet
    /// compacted away.
    fn sample_bytes(&self) -> u64 {
        let samples: usize = self.slots.iter().map(|f| f.len()).sum();
        (samples * std::mem::size_of::<Sample>()) as u64
    }

    /// The seed value of cell `(i, j)` at the run's seed tier. A cell with
    /// an already-k-anonymous endpoint (`!live`) is never read, so the
    /// bound seeds leave it at `+∞` without pricing it; the exact seed
    /// evaluates it anyway, as the paper's full-matrix kernel does.
    #[inline]
    fn seed_value(&self, i: usize, j: usize, live: bool) -> f64 {
        match self.seed {
            TIER_EXACT => {
                let (a, b) = self.operands(i, j);
                fingerprint_stretch(a, b, &self.cfg)
            }
            _ if !live => f64::INFINITY,
            TIER_SIG => signature_lower_bound(&self.sigs[i], &self.sigs[j], &self.cfg, &self.space),
            _ => stretch_lower_bound(&self.hulls[i], &self.hulls[j], &self.cfg),
        }
    }

    /// The one escalation step of every cell: moves cell `(i, j)` of `row`
    /// (owned by slot `i`) up the ladder signature → hull → partial → exact
    /// and books each transition. Returns the exact effort, or `None` once
    /// `ruled_out` dismisses the cell's bound or the evaluation abandons
    /// against `cutoff` (the value `ruled_out` tests against).
    ///
    /// A signature bound is first promoted to the max of its signature and
    /// hull bounds (both admissible, neither dominating: the hull sees
    /// convex extents, the signature sees occupancy holes); if that already
    /// rules the cell out, the fingerprints are never touched. Survivors are
    /// evaluated with `cutoff` as the abandonment cutoff when the run
    /// abandons: an abandoned cell proved itself *strictly* worse than the
    /// cutoff, and it keeps both a tighter admissible bound and its saved
    /// evaluation prefix, so a re-escalation resumes the exact scan where
    /// it stopped. Otherwise every evaluation runs to completion from a
    /// fresh prefix.
    #[inline]
    fn escalate<R: CellRow>(
        &self,
        row: &mut R,
        i: usize,
        j: usize,
        cutoff: f64,
        ruled_out: impl Fn(f64) -> bool,
        counters: &mut CascadeCounters,
    ) -> Option<f64> {
        let (mut val, mut tier) = row.get(j);
        if tier == TIER_EXACT {
            return Some(val);
        }
        if ruled_out(val) {
            return None;
        }
        if tier == TIER_SIG {
            counters.hulled += 1;
            val = stretch_lower_bound(&self.hulls[i], &self.hulls[j], &self.cfg).max(val);
            tier = TIER_HULL;
            row.set(j, val, tier);
            if ruled_out(val) {
                return None;
            }
        }
        let mut fresh = StretchProgress::start();
        let (cutoff, prog) = if self.abandons() {
            (cutoff, row.progress(j))
        } else {
            (f64::INFINITY, &mut fresh)
        };
        let (a, b) = self.operands(i, j);
        // The suffix floors read the hulls the arena keeps, oriented as
        // `operands` orients the samples.
        let (r, c) = tri(i, j);
        let hulls = Some((&self.hulls[r], &self.hulls[c]));
        match fingerprint_stretch_cutoff_resume_hulled(a, b, hulls, &self.cfg, cutoff, prog) {
            StretchEval::Exact(d) => {
                if tier == TIER_PARTIAL {
                    counters.exact_from_partial += 1;
                } else {
                    counters.exact_from_hull += 1;
                }
                row.set(j, d, TIER_EXACT);
                Some(d)
            }
            StretchEval::AtLeast(p) => {
                if tier != TIER_PARTIAL {
                    counters.entered_partial += 1;
                }
                row.set(j, p, TIER_PARTIAL);
                None
            }
        }
    }

    /// The walk shared by matrix construction, merged-row filling and
    /// row-minimum rescans of row `i`: visits `cand` in ascending
    /// `(bound, j)` order and escalates each candidate whose bound could
    /// still produce — or tie — the minimum, folding exact efforts into
    /// `best` under the `(value, smaller j)` rule.
    ///
    /// Stops at the first stored bound strictly above the current best
    /// value: every remaining candidate's exact effort is ≥ that bound, so
    /// it can neither win nor tie. Most walks stop long before the end of
    /// their list, so the order is produced lazily. While `best` is still
    /// infinite the next candidate is a linear argmin (an infinite cutoff
    /// never abandons, so this is normally one); once it is finite only the
    /// candidates whose bound is at most `best.value` can still be visited,
    /// so only they are heapified and popped, O(n + w log n) for `w`
    /// visited candidates. The visit sequence is the sorted one, candidate
    /// for candidate. A candidate whose exact effort equals the final
    /// minimum always survives every tier and is evaluated in full — which
    /// keeps tie-breaking, and hence the published output, byte-identical
    /// to the full-matrix kernel.
    fn cascade_walk<R: CellRow>(
        &self,
        i: usize,
        mut cand: Vec<Cand>,
        best: &mut RowMin,
        row: &mut R,
        counters: &mut CascadeCounters,
    ) {
        while best.value == f64::INFINITY {
            // `Cand` orders in reverse, so its maximum is the smallest
            // `(bound, j)`.
            let Some((k, _)) = cand.iter().enumerate().max_by(|x, y| x.1.cmp(y.1)) else {
                return;
            };
            let Cand { j, .. } = cand.swap_remove(k);
            let limit = f64::INFINITY;
            if let Some(d) = self.escalate(row, i, j, limit, |v| v > limit, counters) {
                best.offer(d, j);
            }
        }
        cand.retain(|c| c.bound <= best.value);
        let mut heap = BinaryHeap::from(cand);
        while let Some(Cand { bound, j }) = heap.pop() {
            let limit = best.value;
            if bound > limit {
                break;
            }
            if let Some(d) = self.escalate(row, i, j, limit, |v| v > limit, counters) {
                best.offer(d, j);
            }
        }
    }

    /// [`Pricer::cascade_walk`] over the live cells `cols` of a row just
    /// seeded in `row` (the matrix build and merged-row fills), reading the
    /// bounds from the row instead of from a candidate per cell. The first
    /// candidate is the linear argmin under `Cand`'s `(bound, j)` order;
    /// once it is evaluated, only the cells whose bound is at most its
    /// exact value become candidates. The visits are `cascade_walk`'s over
    /// every live cell, candidate for candidate.
    fn seeded_walk(
        &self,
        i: usize,
        cols: impl Iterator<Item = usize> + Clone,
        row: &mut PairPage,
        best: &mut RowMin,
        counters: &mut CascadeCounters,
    ) {
        debug_assert_eq!(best.partner, NO_PARTNER, "a seeded row has no minimum yet");
        let first = cols.clone().reduce(|a, b| {
            if (row.val[b], b) < (row.val[a], a) {
                b
            } else {
                a
            }
        });
        let Some(first) = first else {
            return;
        };
        let limit = f64::INFINITY;
        if let Some(d) = self.escalate(row, i, first, limit, |v| v > limit, counters) {
            best.offer(d, first);
        }
        // The other cells still hold their seeds. Should `best` still be
        // infinite, every one of them stays a candidate and `cascade_walk`
        // goes on taking argmins.
        let cand = cols
            .filter(|&j| j != first && row.val[j] <= best.value)
            .map(|j| Cand {
                bound: row.val[j],
                j,
            })
            .collect();
        self.cascade_walk(i, cand, best, row, counters);
    }
}

/// Minimum mean samples per fingerprint for the distance cascade to
/// engage. The tier-0 signature machinery trades a fixed per-cell cost
/// (bitmap builds, XOR/popcount dilation probes, suffix-floor bookkeeping)
/// against the exact evaluations it avoids — whose cost scales with the
/// *product* of the two fingerprints' lengths. Short fingerprints make the
/// exact kernel cheaper than the filter: on daily metro stream windows
/// (~4 samples per fingerprint) the cascade measures ~0.8x, while on the
/// 600-user batch anchor (~41 samples) it measures ~2.5x. Below this mean
/// the run falls back to the hull-only pruner, which is already within a
/// few percent of optimal there. Purely a performance gate: every tier is
/// an admissible filter, so engagement never changes the published output.
const CASCADE_MIN_MEAN_SAMPLES: usize = 16;

/// The per-round global best-pair extraction over cached row minima: the
/// active slot with the smallest `(value, slot)`, with its cached row
/// minimum. The active list ascends by construction, so the fold keeps the
/// first of equal values.
fn global_best(active: &[usize], row_min: &[RowMin]) -> (usize, RowMin) {
    active.iter().fold((NO_PARTNER, RowMin::NONE), |acc, &i| {
        let rm = row_min[i];
        if rm.value < acc.1.value || (rm.value == acc.1.value && i < acc.0) {
            (i, rm)
        } else {
            acc
        }
    })
}

struct Arena<'a> {
    pricer: Pricer<'a>,
    states: Vec<SlotState>,
    /// Per-slot k requirement: the maximum policy k over the slot's member
    /// users. Uniform runs hold `config.k` everywhere; merged slots take
    /// the max of their parents.
    kreq: Vec<usize>,
    /// Lower-triangular effort matrix in struct-of-arrays pages:
    /// `pages[i]` holds columns `0..i`.
    pages: Vec<PairPage>,
    row_min: Vec<RowMin>,
    /// Per-slot candidate lists for stale rescans; [`RowList::NONE`] for
    /// slots that are not active, and for every slot of an exact-seeded
    /// run, so that the full-matrix oracle checks the lists.
    lists: Vec<RowList>,
    active: Vec<usize>,
    retired_count: usize,
    counters: CascadeCounters,
}

impl<'a> Arena<'a> {
    /// Alg. 1 lines 1–3: the arena over `inputs` with every pair cell
    /// seeded and every active row's minimum settled.
    fn build(inputs: &[&'a Fingerprint], config: &GloveConfig, plan: Option<&KPlan>) -> Self {
        let n = inputs.len();
        let samples: usize = inputs.iter().map(|f| f.len()).sum();
        // The one place the pruning mode is read: it picks the tier every
        // fresh cell is seeded at. The cascade engages only where the filter
        // is cheaper than what it filters (see `CASCADE_MIN_MEAN_SAMPLES`);
        // sharded runs pass through here per shard, so the gate adapts to
        // each shard's population.
        let seed = match config.pruning {
            Pruning::Cascade if samples >= CASCADE_MIN_MEAN_SAMPLES * n => TIER_SIG,
            Pruning::Cascade | Pruning::HullOnly => TIER_HULL,
            Pruning::Off => TIER_EXACT,
        };
        // Per-slot k requirement: `config.k` uniformly, raised per
        // fingerprint by the plan's deepest member. Uniform plans collapse
        // to the same comparisons as the pre-policy code, so the merge order
        // is unchanged.
        let kreq: Vec<usize> = inputs
            .iter()
            .map(|f| k_floor(f.users(), config.k, plan))
            .collect();
        let states: Vec<SlotState> = inputs
            .iter()
            .zip(&kreq)
            .map(|(f, &k)| {
                if f.multiplicity() >= k {
                    SlotState::Done
                } else {
                    SlotState::Active
                }
            })
            .collect();
        let pricer = Pricer::new(inputs, config, seed);

        // Triangular matrix, rows in parallel. Every cell is seeded at the
        // run's seed tier and, still inside the parallel row pass, the row's
        // live cells are walked in ascending-bound order, escalating tiers
        // exactly until the bounds rule the rest out — so the bulk of the
        // exact efforts is computed in parallel, and each row's minimum over
        // its own cells (j < i) is final for them. The sweep in
        // `settle_build` adds the column cells a row-local walk cannot see
        // (j > i). With exact seeds this is the paper's full-matrix GPU
        // kernel, and the walk only reads values.
        let rows: Vec<(PairPage, CascadeCounters, RowMin)> = par_map(n, config.threads, |i| {
            let mut counters = CascadeCounters::default();
            counters.seeded(seed, i as u64);
            let live_row = states[i] == SlotState::Active;
            let val = (0..i)
                .map(|j| pricer.seed_value(i, j, live_row && states[j] == SlotState::Active))
                .collect();
            let mut page = PairPage::new(val, seed, pricer.abandons());
            let mut row_local = RowMin::NONE;
            if live_row {
                let cols = (0..i).filter(|&j| states[j] == SlotState::Active);
                pricer.seeded_walk(i, cols, &mut page, &mut row_local, &mut counters);
            }
            (page, counters, row_local)
        });
        let mut arena = Arena {
            pricer,
            active: (0..n).filter(|&i| states[i] == SlotState::Active).collect(),
            states,
            kreq,
            pages: Vec::with_capacity(n),
            row_min: Vec::new(),
            lists: vec![RowList::NONE; n],
            retired_count: 0,
            counters: CascadeCounters::default(),
        };
        let mut build = Vec::with_capacity(n);
        for (page, counters, row_local) in rows {
            arena.counters.absorb(counters);
            arena.pages.push(page);
            build.push(row_local);
        }
        arena.settle_build(build);
        arena
    }

    /// One round of Alg. 1 lines 4–15: merges the globally closest pair of
    /// active slots into a new slot, refreshes the rows whose minimum it
    /// consumed and, while the group is still under its k, seeds and walks
    /// its row.
    fn merge_best(
        &mut self,
        config: &GloveConfig,
        stats: &mut GloveStats,
    ) -> Result<(), GloveError> {
        // Global minimum over cached row minima.
        let (a, best) = global_best(&self.active, &self.row_min);
        let b = best.partner;
        debug_assert_ne!(b, NO_PARTNER, "active set of >= 2 must yield a pair");

        // Merge and retire (lines 5–8).
        let slots = &self.pricer.slots;
        let outcome =
            merge_fingerprints(&slots[a], &slots[b], &config.stretch, &config.suppression)?;
        let merge_dropped = outcome.suppressed.samples;
        stats.merges += 1;
        stats.suppressed.absorb(outcome.suppressed);
        self.states[a] = SlotState::Retired;
        self.states[b] = SlotState::Retired;
        self.retired_count += 2;
        self.active.retain(|&i| i != a && i != b);

        let m = self.pricer.slots.len();
        // A merged group must hide its deepest member. Once it does, it
        // leaves the game (lines 10–14 skip recomputation).
        let m_kreq = self.kreq[a].max(self.kreq[b]);
        let m_done = outcome.fingerprint.multiplicity() >= m_kreq;
        self.kreq.push(m_kreq);
        // Incremental hull maintenance: when the merge suppressed nothing,
        // every parent sample is covered by some merged sample and every
        // merged sample is a bounding box of parent samples, so the merged
        // hull is exactly the union of the parents' hulls — no O(n) rescan.
        // Suppression can shrink the true hull, so those merges refresh.
        // The partial tier's suffix floors read these hulls, so this
        // equality is also what keeps every abandonment, and every work
        // counter, where a freshly built hull would put it.
        let hulls = &self.pricer.hulls;
        let hull = if merge_dropped == 0 {
            let h = hulls[a].union(&hulls[b], outcome.fingerprint.len());
            debug_assert_eq!(
                h,
                StretchHull::of(&outcome.fingerprint),
                "suppression-free merges must preserve the union hull"
            );
            h
        } else {
            StretchHull::of(&outcome.fingerprint)
        };
        self.pricer.push(outcome.fingerprint, hull);
        self.pages.push(PairPage::default());
        self.row_min.push(RowMin::NONE);
        self.lists.push(RowList::NONE);
        self.states.push(if m_done {
            SlotState::Done
        } else {
            SlotState::Active
        });

        // Rows whose minimum pointed at a or b must find a new minimum. The
        // stale set is fixed *before* rescanning, and a rescanned row does
        // not fold the newcomer this round (its rescan runs while `m` is not
        // yet active): folding it would shift tie attribution and the merge
        // order. Rescans touch cells among pre-existing slots only, so they
        // are independent of the new row below.
        let stale: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&i| {
                let p = self.row_min[i].partner;
                p == a || p == b
            })
            .collect();
        for &i in &stale {
            self.rescan_row_min(i);
        }
        if !m_done {
            // Seed the merged fingerprint's row against every remaining
            // active fingerprint (lines 11–13), list its smallest seeds, and
            // walk it in ascending-bound order until the bounds rule the
            // rest out. The other partners then only escalate the new pair's
            // cell while its bound could actually beat their cached minimum
            // (a tie never wins: `m` is the largest id), and list `m` when
            // the cell enters below their list's floor.
            let keeps_lists = self.keeps_lists();
            let Arena {
                ref pricer,
                ref mut pages,
                ref mut counters,
                ref mut row_min,
                ref mut lists,
                ref active,
                ..
            } = *self;
            let mut page = PairPage::new(vec![f64::INFINITY; m], TIER_EXACT, pricer.abandons());
            counters.seeded(pricer.seed, active.len() as u64);
            for &j in active {
                page.set(j, pricer.seed_value(m, j, true), pricer.seed);
            }
            if keeps_lists {
                lists[m] = ListBuilder::of(active.iter().map(|&j| (page.val[j], j))).finish();
            }
            let cols = active.iter().copied();
            pricer.seeded_walk(m, cols, &mut page, &mut row_min[m], counters);
            pages[m] = page;
            let mut row = TriRow { pages, i: m };
            for &j in active {
                if stale.binary_search(&j).is_err() {
                    let limit = row_min[j].value;
                    let ruled_out = |v| v >= limit;
                    if let Some(d) = pricer.escalate(&mut row, m, j, limit, ruled_out, counters) {
                        row_min[j].offer(d, m);
                    }
                }
                if row.get(j).0 < lists[j].floor {
                    lists[j].partners.push(m as u32);
                }
            }
            self.active.push(m);
        }
        Ok(())
    }

    /// Whether retired slots dominate the arena enough to compact it.
    fn compaction_due(&self) -> bool {
        self.retired_count > 64 && self.retired_count * 2 > self.states.len()
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> (f64, u8) {
        let (r, c) = tri(i, j);
        self.pages[r].get(c)
    }

    /// Whether rows keep candidate lists: every run but the exact-seeded
    /// oracle, whose full scans the lists must reproduce.
    fn keeps_lists(&self) -> bool {
        self.pricer.seed != TIER_EXACT
    }

    /// The row minima after the matrix build. The parallel build walked
    /// each row's own cells (`j < i`) and left `build[i]`, the exact
    /// minimum among them: every cell there that is not exact lies above
    /// it, and a later walk only raises or settles such a cell. A row's
    /// minimum can therefore only move through its column cells (`j > i`),
    /// and no other row's walk touches those. So one row-major pass over
    /// the triangle folds every active row's column cells, still in their
    /// build state, into its minimum and its candidates, and offers every
    /// active cell to both rows' lists; then each row walks its own
    /// candidates. The walks visit what the row-by-row rescans visited,
    /// cell for cell.
    fn settle_build(&mut self, build: Vec<RowMin>) {
        /// What the sweep gathers for one active row.
        struct Settle {
            best: RowMin,
            cands: Vec<Cand>,
            list: ListBuilder,
        }
        let keeps_lists = self.keeps_lists();
        let active = &self.active;
        // Every row samples one cell in `LIST_SAMPLE` for its list's first
        // floor, on the diagonals where the active positions sum to a
        // multiple of it.
        let mut low = vec![Estimate::NONE; active.len()];
        for (pos, &r) in active.iter().enumerate().filter(|_| keeps_lists) {
            let page = &self.pages[r];
            let first = (LIST_SAMPLE - pos % LIST_SAMPLE) % LIST_SAMPLE;
            for q in (first..pos).step_by(LIST_SAMPLE) {
                let val = page.val[active[q]];
                low[pos].add(val);
                low[q].add(val);
            }
        }
        let mut rows: Vec<Settle> = active
            .iter()
            .zip(&low)
            .map(|(&i, low)| Settle {
                best: build[i],
                cands: Vec::new(),
                list: low.builder(),
            })
            .collect();
        // Rows are indexed by active position, so each cell's two rows are
        // a prefix element and the element that ends the prefix.
        for (pos, &r) in active.iter().enumerate() {
            let page = &self.pages[r];
            let (cols, rest) = rows.split_at_mut(pos);
            let own = &mut rest[0].list;
            for (&c, row) in active[..pos].iter().zip(cols) {
                let (val, tier) = page.get(c);
                if tier == TIER_EXACT {
                    row.best.offer(val, r);
                } else if val <= row.best.value {
                    row.cands.push(Cand { bound: val, j: r });
                }
                if keeps_lists {
                    own.offer(val, c);
                    row.list.offer(val, r);
                }
            }
        }
        let Arena {
            ref pricer,
            ref mut pages,
            ref mut counters,
            ref mut lists,
            ref mut row_min,
            ref active,
            ..
        } = *self;
        *row_min = build;
        for (&i, mut row) in active.iter().zip(rows) {
            pricer.cascade_walk(
                i,
                row.cands,
                &mut row.best,
                &mut TriRow { pages, i },
                counters,
            );
            row_min[i] = row.best;
            if keeps_lists {
                lists[i] = row.list.finish();
            }
        }
    }

    /// Recomputes the cached minimum of stale row `i`: from its list when
    /// the list decides it, from a full scan of the active set (which
    /// rebuilds the list) otherwise. Either way the row then walks the
    /// cells that could still beat its best exact cell.
    fn rescan_row_min(&mut self, i: usize) {
        let (mut best, deferred) = match self.list_scan(i) {
            Some(hit) => hit,
            None if self.keeps_lists() => {
                let sample = self.active.iter().step_by(LIST_SAMPLE).filter(|&&j| j != i);
                let mut list = ListBuilder::estimating(sample.map(|&j| self.cell(i, j).0));
                let scan = self.scan(i, |val, j| list.offer(val, j));
                self.lists[i] = list.finish();
                scan
            }
            None => self.scan(i, |_, _| {}),
        };
        let Arena {
            ref pricer,
            ref mut pages,
            ref mut counters,
            ..
        } = *self;
        pricer.cascade_walk(i, deferred, &mut best, &mut TriRow { pages, i }, counters);
        self.row_min[i] = best;
    }

    /// The full scan of row `i` over the active set: its exact minimum by
    /// `(value, partner)` and the cells whose stored bound could still
    /// produce — or tie — it. `each` sees every active cell's value.
    ///
    /// Every cell whose exact effort could equal the final minimum has a
    /// bound at most that minimum, so the walk evaluates it and ties break
    /// on the partner the full-matrix scan picks. A cell whose bound
    /// already exceeds the best exact cell is dropped before the walk
    /// orders anything: the walk breaks at the first bound above
    /// `best.value`, which only falls, so that cell could only have been
    /// the one it stopped at.
    fn scan(&self, i: usize, mut each: impl FnMut(f64, usize)) -> (RowMin, Vec<Cand>) {
        let mut best = RowMin::NONE;
        let mut deferred: Vec<Cand> = Vec::new();
        for &j in &self.active {
            if j == i {
                continue;
            }
            let (val, tier) = self.cell(i, j);
            each(val, j);
            if tier == TIER_EXACT {
                best.offer(val, j);
            } else if val <= best.value {
                deferred.push(Cand { bound: val, j });
            }
        }
        // Cells pushed before `best` reached its final value may be ruled
        // out by it as well.
        deferred.retain(|c| c.bound <= best.value);
        (best, deferred)
    }

    /// The minimum and candidates of row `i` read from its list alone, or
    /// `None` when the list cannot decide them: no listed active exact cell
    /// lies strictly below the list's floor. When one does, the full scan's
    /// minimum is the listed one (every unlisted cell is at or above the
    /// floor) and so is every cell the full scan would walk.
    fn list_scan(&self, i: usize) -> Option<(RowMin, Vec<Cand>)> {
        let list = &self.lists[i];
        let listed = list
            .partners
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| self.states[j] == SlotState::Active);
        let mut best = RowMin::NONE;
        for j in listed.clone() {
            let (val, tier) = self.cell(i, j);
            if tier == TIER_EXACT {
                best.offer(val, j);
            }
        }
        if best.value >= list.floor {
            return None;
        }
        let deferred: Vec<Cand> = listed
            .filter_map(|j| {
                let (val, tier) = self.cell(i, j);
                (tier != TIER_EXACT && val <= best.value).then_some(Cand { bound: val, j })
            })
            .collect();
        debug_assert!(
            {
                let (full, walk) = self.scan(i, |_, _| {});
                full.value.to_bits() == best.value.to_bits()
                    && full.partner == best.partner
                    && walk.iter().all(|c| list.partners.contains(&(c.j as u32)))
            },
            "row {i}: a list hit that a full scan does not confirm"
        );
        Some((best, deferred))
    }

    /// Drops retired slots and renumbers the rest, active slots first and
    /// then finished groups, each in their old order, without allocating a
    /// second triangle. The order among active slots is kept, so every cell
    /// an active row keeps — its active columns — lies in its own old page,
    /// which is filtered in place; finished groups keep empty pages, since
    /// their cells are never read. Publication, every tie-break among active
    /// slots and the residual merge read only the relative orders this
    /// keeps. Cascade attribution is unaffected: the transition counters
    /// live on the arena, not in the cells this rewrites.
    fn compact(&mut self) {
        let done = (0..self.states.len()).filter(|&i| self.states[i] == SlotState::Done);
        let order: Vec<usize> = self.active.iter().copied().chain(done).collect();
        let mut remap = vec![NO_PARTNER; self.states.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            remap[old_id] = new_id;
        }

        let mut pages = Vec::with_capacity(order.len());
        for (pos, &i) in self.active.iter().enumerate() {
            let mut page = std::mem::take(&mut self.pages[i]);
            page.keep(&self.active[..pos]);
            pages.push(page);
        }
        pages.resize_with(order.len(), PairPage::default);
        // A list keeps its active partners under their new ids; the others
        // can never be read from it again.
        let states = &self.states;
        let lists = order
            .iter()
            .map(|&i| RowList {
                partners: self.lists[i]
                    .partners
                    .iter()
                    .filter(|&&j| states[j as usize] == SlotState::Active)
                    .map(|&j| remap[j as usize] as u32)
                    .collect(),
                floor: self.lists[i].floor,
            })
            .collect();
        let row_min = order
            .iter()
            .map(|&i| {
                let RowMin { value, partner } = self.row_min[i];
                let partner = if partner == NO_PARTNER {
                    NO_PARTNER
                } else {
                    remap[partner]
                };
                RowMin { value, partner }
            })
            .collect();
        self.pricer.compacted(&order);
        self.states = order.iter().map(|&i| self.states[i]).collect();
        self.kreq = order.iter().map(|&i| self.kreq[i]).collect();
        self.pages = pages;
        self.row_min = row_min;
        self.lists = lists;
        self.active = (0..self.active.len()).collect();
        self.retired_count = 0;
    }

    /// Merges the residual under-k slot `r` into the nearest finished group
    /// ([`ResidualPolicy::MergeIntoNearest`]), then keeps absorbing the
    /// next-nearest finished groups until the group meets the deepest k of
    /// everything it holds. Groups are taken in the order of the distances
    /// already computed from the residual, so no pair is evaluated twice.
    /// Under a uniform k the first absorption always suffices: the target
    /// hides at least k subscribers and the residual at least one. The
    /// result takes the nearest group's slot.
    fn merge_residual(
        &mut self,
        r: usize,
        config: &GloveConfig,
        stats: &mut GloveStats,
    ) -> Result<(), GloveError> {
        let done: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.states[i] == SlotState::Done)
            .collect();
        let slots = &self.pricer.slots;
        if done.is_empty() {
            // Fewer than k users in total was rejected up front, so this can
            // only happen if every user sits in the single residual
            // fingerprint — which then cannot be helped.
            return Err(GloveError::Unsatisfiable(format!(
                "no k-anonymous group exists to absorb the residual fingerprint \
                 ({} users < k = {})",
                slots[r].multiplicity(),
                self.kreq[r]
            )));
        }
        let cfg = &config.stretch;
        let dists = par_map(done.len(), config.threads, |idx| {
            fingerprint_stretch(&slots[r], &slots[done[idx]], cfg)
        });
        stats.pairs_computed += done.len() as u64;
        let mut order: Vec<usize> = (0..done.len()).collect();
        order.sort_by(|&x, &y| {
            let by_dist = dists[x].partial_cmp(&dists[y]);
            by_dist.expect("efforts are finite").then(x.cmp(&y))
        });
        let mut group = Cow::Borrowed(&*slots[r]);
        let mut need = self.kreq[r];
        for &idx in &order {
            let target = done[idx];
            let outcome = merge_fingerprints(&slots[target], &group, cfg, &config.suppression)?;
            stats.merges += 1;
            stats.suppressed.absorb(outcome.suppressed);
            group = Cow::Owned(outcome.fingerprint);
            need = need.max(self.kreq[target]);
            self.states[target] = SlotState::Retired;
            if group.multiplicity() >= need {
                break;
            }
        }
        let home = done[order[0]];
        self.pricer.slots[home] = Cow::Owned(group.into_owned());
        self.states[home] = SlotState::Done;
        self.states[r] = SlotState::Retired;
        Ok(())
    }

    /// Current bytes held by the arena's own structures: matrix pages,
    /// hulls, signatures, cached minima and candidate lists. The slots'
    /// samples are booked separately ([`Pricer::sample_bytes`]).
    fn bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for p in &self.pages {
            bytes += (p.val.capacity() * std::mem::size_of::<f64>()
                + p.tier.capacity()
                + p.prog.capacity() * std::mem::size_of::<StretchProgress>())
                as u64;
        }
        for l in &self.lists {
            bytes += (l.partners.capacity() * std::mem::size_of::<u32>()) as u64;
        }
        bytes += (self.lists.capacity() * std::mem::size_of::<RowList>()) as u64;
        bytes += (self.pricer.hulls.capacity() * std::mem::size_of::<StretchHull>()) as u64;
        bytes += (self.pricer.sigs.capacity() * std::mem::size_of::<CompactSignature>()) as u64;
        bytes += (self.row_min.capacity() * std::mem::size_of::<RowMin>()) as u64;
        bytes +=
            (self.states.capacity() + self.active.capacity() * std::mem::size_of::<usize>()) as u64;
        bytes
    }

    /// Folds the arena's current footprint into the run ledger. Arena and
    /// slot memory grow monotonically between compactions, so observing at
    /// build end, just before each compaction, at loop end and before
    /// publication captures the true peaks without per-round scans.
    fn observe(&self, ledger: &mut MemoryLedger) {
        ledger.observe_arena(self.bytes());
        ledger.observe_store(self.pricer.sample_bytes());
    }
}

/// Runs GLOVE on a dataset, returning the k-anonymized dataset and run
/// statistics.
///
/// When [`GloveConfig::shard`] is set with more than one shard, the run is
/// routed through the sharded engine ([`crate::shard`]); otherwise the
/// monolithic Alg. 1 processes the whole dataset.
///
/// # Errors
///
/// * [`GloveError::InvalidConfig`] for invalid configurations;
/// * [`GloveError::Unsatisfiable`] when the dataset holds fewer than `k`
///   subscribers (no grouping can reach k-anonymity);
/// * [`GloveError::InvalidDataset`] for an empty dataset, or when a group
///   about to be published hides fewer subscribers than its k floor.
pub fn anonymize(dataset: &Dataset, config: &GloveConfig) -> Result<GloveOutput, GloveError> {
    anonymize_with_plan(dataset, config, None)
}

/// [`anonymize`] under a per-user k plan from the policy plane
/// (see [`crate::policy`]).
///
/// Every published fingerprint hides at least `config.k` subscribers, and
/// additionally at least `plan.k_of(u)` subscribers for each member user
/// `u` — a group is done only once its deepest member is hidden. Passing
/// `None` (or a uniform plan) is byte-identical to [`anonymize`].
///
/// # Errors
///
/// As [`anonymize`]; additionally [`GloveError::Unsatisfiable`] when the
/// dataset is smaller than the deepest k required by the plan.
pub fn anonymize_with_plan(
    dataset: &Dataset,
    config: &GloveConfig,
    plan: Option<&KPlan>,
) -> Result<GloveOutput, GloveError> {
    check_run(dataset, config, plan)?;
    match config.shard {
        Some(policy) if policy.shards > 1 => {
            crate::shard::anonymize_sharded(dataset, config, policy, plan)
        }
        _ => {
            let inputs: Vec<&Fingerprint> = dataset.fingerprints.iter().collect();
            run_monolithic(&dataset.name, &inputs, config, plan)
        }
    }
}

/// The checks [`anonymize_with_plan`] makes before any work: a valid
/// config, a non-empty dataset, and a population that covers the deepest
/// k any fingerprint carries under `plan`. The run API's `prepare` calls
/// it too, so `prepare` fails exactly where `run` would.
pub(crate) fn check_run(
    dataset: &Dataset,
    config: &GloveConfig,
    plan: Option<&KPlan>,
) -> Result<(), GloveError> {
    config.validate()?;
    if dataset.fingerprints.is_empty() {
        return Err(GloveError::InvalidDataset(
            "cannot anonymize an empty dataset".into(),
        ));
    }
    // Satisfiability: the deepest requirement any fingerprint in this
    // dataset actually carries must be coverable by the population.
    let need = dataset
        .fingerprints
        .iter()
        .map(|f| k_floor(f.users(), config.k, plan))
        .max()
        .unwrap_or(config.k);
    if dataset.num_users() < need {
        return Err(GloveError::Unsatisfiable(format!(
            "dataset has {} subscribers, fewer than k = {}",
            dataset.num_users(),
            need
        )));
    }
    Ok(())
}

/// The monolithic Alg. 1 loop over the fingerprints `inputs` of a dataset
/// (or of one shard of it) named `name`. The inputs are borrowed: the run
/// copies only the groups it publishes unmerged. Callers guarantee a
/// validated config and non-empty inputs holding at least `k` subscribers
/// (the plan's deepest k when one is given).
pub(crate) fn run_monolithic(
    name: &str,
    inputs: &[&Fingerprint],
    config: &GloveConfig,
    plan: Option<&KPlan>,
) -> Result<GloveOutput, GloveError> {
    let started = Instant::now();
    let mut stats = GloveStats::default();
    let mut ledger = MemoryLedger::default();
    let mut arena = Arena::build(inputs, config, plan);
    arena.observe(&mut ledger);
    while arena.active.len() >= 2 {
        arena.merge_best(config, &mut stats)?;
        // Keep memory proportional to the live set. Memory grows
        // monotonically between compactions, so observing just before each
        // one captures the intervening peak.
        if arena.compaction_due() {
            arena.observe(&mut ledger);
            arena.compact();
        }
    }
    arena.observe(&mut ledger);

    // ---- Residual handling (not specified by Alg. 1; see DESIGN.md) -------
    if let Some(&r) = arena.active.first() {
        match config.residual {
            ResidualPolicy::MergeIntoNearest => arena.merge_residual(r, config, &mut stats)?,
            ResidualPolicy::Suppress => {
                stats.discarded_fingerprints += 1;
                stats.discarded_users += arena.pricer.slots[r].multiplicity() as u64;
                arena.states[r] = SlotState::Retired;
            }
        }
    }

    // ---- Publication -------------------------------------------------------
    arena.observe(&mut ledger);
    let slots = std::mem::take(&mut arena.pricer.slots);
    let mut published = Vec::new();
    for (fp, &state) in slots.into_iter().zip(&arena.states) {
        if state == SlotState::Done {
            let mut fp = fp.into_owned();
            if config.reshape {
                stats.reshaped_samples +=
                    reshape_suppressed(&mut fp, &config.suppression, &mut stats.suppressed)? as u64;
            }
            published.push(fp);
        }
    }
    // Every pair cell ever created ended in exactly one cascade bucket:
    // dismissed at tier 0 or 1, abandoned mid-evaluation, or evaluated to
    // completion (`pairs_computed`, which also holds the residual's
    // distances).
    stats.pairs_computed += arena.counters.exact();
    stats.pairs_skipped_tier0 = arena.counters.skipped_tier0();
    stats.pairs_skipped_tier1 = arena.counters.skipped_tier1();
    stats.pairs_abandoned = arena.counters.abandoned();
    stats.pairs_pruned =
        stats.pairs_skipped_tier0 + stats.pairs_skipped_tier1 + stats.pairs_abandoned;
    ledger.capture_rss();
    stats.ledger = ledger;
    stats.elapsed_s = started.elapsed().as_secs_f64();

    let dataset = Dataset::new(format!("{name}-glove-k{}", config.k), published)?;
    check_k_floors(&dataset, config.k, plan)?;
    Ok(GloveOutput { dataset, stats })
}

/// The k a group of `users` must reach: `k`, raised by the plan's deepest
/// member.
fn k_floor(users: &[UserId], k: usize, plan: Option<&KPlan>) -> usize {
    plan.map_or(k, |p| p.required_k(users).max(k))
}

/// The paper's guarantee, checked in release builds too: every published
/// group hides at least `k` subscribers, and at least the deepest plan k
/// of its members.
fn check_k_floors(dataset: &Dataset, k: usize, plan: Option<&KPlan>) -> Result<(), GloveError> {
    for fp in &dataset.fingerprints {
        let need = k_floor(fp.users(), k, plan);
        if fp.multiplicity() < need {
            return Err(GloveError::InvalidDataset(format!(
                "a published group hides {} subscribers, fewer than its k = {need}",
                fp.multiplicity()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GloveConfig, SuppressionThresholds};
    use crate::model::Sample;

    fn toy_dataset(n: usize) -> Dataset {
        // n users in two spatial clusters with slightly jittered times.
        let fps = (0..n)
            .map(|u| {
                let cluster = (u % 2) as i64;
                Fingerprint::from_points(
                    u as u32,
                    &[
                        (
                            cluster * 50_000 + (u as i64 % 7) * 100,
                            0,
                            60 + u as u32 % 5,
                        ),
                        (cluster * 50_000 + 1_000, 2_000, 600 + (u as u32 % 11)),
                        (cluster * 50_000, 4_000, 1_200 + (u as u32 % 3)),
                    ],
                )
                .unwrap()
            })
            .collect();
        Dataset::new("toy", fps).unwrap()
    }

    #[test]
    fn k2_yields_k_anonymity_and_keeps_all_users() {
        let ds = toy_dataset(20);
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(out.dataset.num_users(), 20);
        assert!(out.stats.merges >= 10);
        // The unpruned path evaluates the full matrix; pruning may only
        // reduce the count, never change the published output.
        let unpruned = anonymize(
            &ds,
            &GloveConfig {
                pruning: Pruning::Off,
                ..GloveConfig::default()
            },
        )
        .unwrap();
        assert!(unpruned.stats.pairs_computed >= 190);
        assert_eq!(unpruned.stats.pairs_pruned, 0);
        assert!(out.stats.pairs_computed <= unpruned.stats.pairs_computed);
        // Computed + distinct-pruned accounts for exactly the pairs the
        // unpruned kernel evaluates.
        assert_eq!(
            out.stats.pairs_computed + out.stats.pairs_pruned,
            unpruned.stats.pairs_computed
        );
        assert_eq!(out.dataset.fingerprints, unpruned.dataset.fingerprints);
        assert_eq!(out.stats.merges, unpruned.stats.merges);
    }

    /// Two spatial clusters of fingerprints long enough to clear the
    /// cascade's mean-length engagement gate (`CASCADE_MIN_MEAN_SAMPLES`).
    fn long_toy_dataset(n: usize) -> Dataset {
        let fps = (0..n)
            .map(|u| {
                let cluster = (u % 2) as i64;
                let points: Vec<(i64, i64, u32)> = (0..20)
                    .map(|p| {
                        (
                            cluster * 50_000 + (u as i64 % 7) * 100 + p * 250,
                            (p % 5) * 300,
                            60 * p as u32 + u as u32 % 5,
                        )
                    })
                    .collect();
                Fingerprint::from_points(u as u32, &points).unwrap()
            })
            .collect();
        Dataset::new("long-toy", fps).unwrap()
    }

    #[test]
    fn cascade_tiers_account_for_every_pair_and_stay_byte_identical() {
        let ds = long_toy_dataset(24);
        let unpruned = anonymize(
            &ds,
            &GloveConfig {
                pruning: Pruning::Off,
                ..GloveConfig::default()
            },
        )
        .unwrap();
        assert_eq!(unpruned.stats.pairs_skipped_tier0, 0);
        assert_eq!(unpruned.stats.pairs_skipped_tier1, 0);
        assert_eq!(unpruned.stats.pairs_abandoned, 0);

        // Hull-only pruning (the pre-cascade comparator) and the full
        // cascade must both reproduce the unpruned output byte for byte
        // and account for every candidate pair exactly once.
        let hull_only = anonymize(
            &ds,
            &GloveConfig {
                pruning: Pruning::HullOnly,
                ..GloveConfig::default()
            },
        )
        .unwrap();
        let cascade = anonymize(&ds, &GloveConfig::default()).unwrap();
        for out in [&hull_only, &cascade] {
            assert_eq!(out.dataset.fingerprints, unpruned.dataset.fingerprints);
            assert_eq!(out.stats.merges, unpruned.stats.merges);
            assert_eq!(
                out.stats.pairs_pruned,
                out.stats.pairs_skipped_tier0
                    + out.stats.pairs_skipped_tier1
                    + out.stats.pairs_abandoned
            );
            assert_eq!(
                out.stats.pairs_computed + out.stats.pairs_pruned,
                unpruned.stats.pairs_computed
            );
            assert_eq!(out.stats.candidate_pairs(), unpruned.stats.pairs_computed);
        }
        // Hull-only runs have no tier-0 or abandonment activity by
        // construction.
        assert_eq!(hull_only.stats.pairs_skipped_tier0, 0);
        assert_eq!(hull_only.stats.pairs_abandoned, 0);
        // The cascade never evaluates more pairs in full than hull-only
        // pruning does, and on this fixture it actually fields candidates
        // at every tier (the fixture clears the engagement gate).
        assert!(cascade.stats.pairs_computed <= hull_only.stats.pairs_computed);
        assert!(cascade.stats.pairs_skipped_tier0 > 0);
        assert!(cascade.stats.pairs_abandoned > 0);
    }

    #[test]
    fn cascade_gate_disengages_on_short_fingerprints() {
        // toy_dataset fingerprints hold 3 samples — well under the
        // engagement gate — so a default run must behave exactly like the
        // hull-only pruner: no signature activity, no abandonments, same
        // published bytes (the gate is a performance decision, never a
        // semantic one).
        let ds = toy_dataset(20);
        let gated = anonymize(&ds, &GloveConfig::default()).unwrap();
        let hull_only = anonymize(
            &ds,
            &GloveConfig {
                pruning: Pruning::HullOnly,
                ..GloveConfig::default()
            },
        )
        .unwrap();
        assert_eq!(gated.stats.pairs_skipped_tier0, 0);
        assert_eq!(gated.stats.pairs_abandoned, 0);
        assert_eq!(gated.dataset.fingerprints, hull_only.dataset.fingerprints);
        assert_eq!(gated.stats.pairs_computed, hull_only.stats.pairs_computed);
    }

    #[test]
    fn arenas_without_early_abandonment_keep_no_progress_column() {
        // Below the cascade gate, and in hull-only runs, no evaluation
        // stops part way, so a cell is an 8-byte value and a 1-byte tier
        // with no 24-byte saved prefix beside it.
        let short = toy_dataset(256);
        let long = long_toy_dataset(240);
        for (ds, pruning) in [(&short, Pruning::Cascade), (&long, Pruning::HullOnly)] {
            let out = anonymize(
                ds,
                &GloveConfig {
                    pruning,
                    ..GloveConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.stats.pairs_abandoned, 0);
            let per_pair =
                out.stats.ledger.peak_arena_bytes as f64 / out.stats.candidate_pairs() as f64;
            assert!(
                per_pair < 16.0,
                "{per_pair:.1} peak arena bytes per candidate pair"
            );
        }
    }

    #[test]
    fn k5_grouping() {
        let ds = toy_dataset(23);
        let cfg = GloveConfig {
            k: 5,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &cfg).unwrap();
        assert!(out.dataset.is_k_anonymous(5));
        assert_eq!(out.dataset.num_users(), 23);
        // 23 users in groups of >= 5 means at most 4 groups.
        assert!(out.dataset.fingerprints.len() <= 4);
    }

    #[test]
    fn odd_user_count_residual_merge() {
        let ds = toy_dataset(7);
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(out.dataset.num_users(), 7);
        // One group must have absorbed the residual (size 3).
        assert!(out
            .dataset
            .fingerprints
            .iter()
            .any(|f| f.multiplicity() == 3));
    }

    #[test]
    fn odd_user_count_residual_suppress() {
        let ds = toy_dataset(7);
        let cfg = GloveConfig {
            residual: ResidualPolicy::Suppress,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &cfg).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(
            out.dataset.num_users() as u64 + out.stats.discarded_users,
            7
        );
        assert_eq!(out.stats.discarded_fingerprints, 1);
    }

    #[test]
    fn identical_fingerprints_merge_at_zero_cost() {
        let samples = vec![Sample::point(0, 0, 100), Sample::point(5_000, 0, 700)];
        let fps = (0..4)
            .map(|u| Fingerprint::with_users(vec![u], samples.clone()).unwrap())
            .collect();
        let ds = Dataset::new("dup", fps).unwrap();
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        // All published samples are exactly the originals: zero stretching.
        for fp in &out.dataset.fingerprints {
            assert_eq!(fp.samples(), &samples[..]);
        }
    }

    #[test]
    fn rejects_k_larger_than_population() {
        let ds = toy_dataset(3);
        let cfg = GloveConfig {
            k: 5,
            ..GloveConfig::default()
        };
        assert!(matches!(
            anonymize(&ds, &cfg),
            Err(GloveError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        let ds = Dataset::new("empty", vec![]).unwrap();
        assert!(anonymize(&ds, &GloveConfig::default()).is_err());
    }

    #[test]
    fn suppression_reduces_extents() {
        // One user has an outlier sample extremely far away; with
        // suppression the published boxes stay within the threshold.
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 10), (800_000, 0, 20)]).unwrap(),
            Fingerprint::from_points(1, &[(200, 0, 12)]).unwrap(),
        ];
        let ds = Dataset::new("outlier", fps).unwrap();
        let cfg = GloveConfig {
            suppression: SuppressionThresholds {
                max_space_m: Some(10_000),
                max_time_min: None,
            },
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &cfg).unwrap();
        assert!(out.stats.suppressed.samples >= 1);
        for fp in &out.dataset.fingerprints {
            for s in fp.samples() {
                assert!(s.dx.max(s.dy) <= 10_000);
            }
        }
    }

    #[test]
    fn published_fingerprints_have_disjoint_windows() {
        let ds = toy_dataset(12);
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        for fp in &out.dataset.fingerprints {
            for w in fp.samples().windows(2) {
                assert!(!w[0].overlaps_in_time(&w[1]));
            }
        }
    }

    #[test]
    fn no_reshape_option_skips_reshaping() {
        let ds = toy_dataset(12);
        let cfg = GloveConfig {
            reshape: false,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &cfg).unwrap();
        assert_eq!(out.stats.reshaped_samples, 0);
    }

    #[test]
    fn compaction_preserves_result() {
        // Large enough run to trigger compaction paths with k = 5 (which
        // keeps intermediate groups active).
        let ds = toy_dataset(64);
        let cfg = GloveConfig {
            k: 5,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &cfg).unwrap();
        assert!(out.dataset.is_k_anonymous(5));
        assert_eq!(out.dataset.num_users(), 64);
        // Compaction must not disturb the exactness anchor either.
        let unpruned = anonymize(
            &ds,
            &GloveConfig {
                k: 5,
                pruning: Pruning::Off,
                ..GloveConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.dataset.fingerprints, unpruned.dataset.fingerprints);
        assert_eq!(
            out.stats.pairs_computed + out.stats.pairs_pruned,
            unpruned.stats.pairs_computed
        );
    }

    /// Drives `run_monolithic`'s greedy loop on `ds` and checks the arena
    /// around every compaction: active slots take ids `0..A` in their old
    /// order with every active cell kept, finished groups follow in their
    /// old order with empty pages, and the arena shrinks. Returns the
    /// number of compactions.
    fn checked_compactions(ds: &Dataset, config: &GloveConfig) -> usize {
        let inputs: Vec<&Fingerprint> = ds.fingerprints.iter().collect();
        let mut arena = Arena::build(&inputs, config, None);
        let mut stats = GloveStats::default();
        let mut compactions = 0;
        while arena.active.len() >= 2 {
            arena.merge_best(config, &mut stats).unwrap();
            if !arena.compaction_due() {
                continue;
            }
            let users = |arena: &Arena, ids: &[usize]| -> Vec<Vec<UserId>> {
                ids.iter()
                    .map(|&i| arena.pricer.slots[i].users().to_vec())
                    .collect()
            };
            let done = |arena: &Arena| -> Vec<usize> {
                (0..arena.states.len())
                    .filter(|&i| arena.states[i] == SlotState::Done)
                    .collect()
            };
            let cells = |arena: &Arena| -> Vec<(f64, u8)> {
                let act = &arena.active;
                (0..act.len())
                    .flat_map(|p| (0..p).map(move |q| (act[p], act[q])))
                    .map(|(i, j)| arena.cell(i, j))
                    .collect()
            };
            let active_before = users(&arena, &arena.active);
            let done_before = users(&arena, &done(&arena));
            let cells_before = cells(&arena);
            let bytes_before = arena.bytes();

            arena.compact();
            compactions += 1;

            let a = active_before.len();
            let done_after = done(&arena);
            assert_eq!(arena.active, (0..a).collect::<Vec<_>>());
            assert_eq!(users(&arena, &arena.active), active_before);
            assert_eq!(done_after, (a..arena.states.len()).collect::<Vec<_>>());
            assert_eq!(users(&arena, &done_after), done_before);
            for page in &arena.pages[a..] {
                assert!(page.val.is_empty() && page.tier.is_empty() && page.prog.is_empty());
            }
            let after = cells(&arena);
            assert_eq!(after.len(), cells_before.len());
            for (x, y) in after.iter().zip(&cells_before) {
                assert_eq!((x.0.to_bits(), x.1), (y.0.to_bits(), y.1));
            }
            assert!(
                arena.bytes() <= bytes_before,
                "compaction grew the arena: {} -> {} bytes",
                bytes_before,
                arena.bytes()
            );
        }
        compactions
    }

    #[test]
    fn compaction_renumbers_active_slots_first_in_place() {
        // At k = 2 every merge finishes a group, so the loop compacts once:
        // the finished groups the first compaction keeps outweigh what the
        // remaining merges can retire. At k = 3 merged pairs stay active
        // and carry columns for finished groups, and the loop compacts more
        // often. Long fingerprints engage the cascade, whose rows keep a
        // progress column.
        for (ds, k, at_least) in [
            (toy_dataset(150), 2, 1),
            (toy_dataset(240), 3, 2),
            (long_toy_dataset(200), 3, 2),
        ] {
            for pruning in [Pruning::Cascade, Pruning::HullOnly, Pruning::Off] {
                let config = GloveConfig {
                    k,
                    pruning,
                    ..GloveConfig::default()
                };
                let compactions = checked_compactions(&ds, &config);
                assert!(
                    compactions >= at_least,
                    "{} fingerprints at k = {k}: {compactions} compactions",
                    ds.fingerprints.len()
                );
            }
            // Whatever the tier, the run publishes the exact oracle's bytes
            // and accounts for its work.
            let run = |pruning| {
                let config = GloveConfig {
                    k,
                    pruning,
                    ..GloveConfig::default()
                };
                anonymize(&ds, &config).unwrap()
            };
            let oracle = run(Pruning::Off);
            for out in [run(Pruning::Cascade), run(Pruning::HullOnly)] {
                assert_eq!(out.dataset.fingerprints, oracle.dataset.fingerprints);
                assert_eq!(out.stats.merges, oracle.stats.merges);
                assert_eq!(out.stats.suppressed, oracle.stats.suppressed);
                assert_eq!(out.stats.reshaped_samples, oracle.stats.reshaped_samples);
                assert_eq!(out.stats.candidate_pairs(), oracle.stats.pairs_computed);
            }
        }
    }

    /// 96 subscribers: 42 copies of one fingerprint, at the positions 9–15
    /// of every 16, tie at zero effort with each other, and the others, all
    /// distinct, lie at positive efforts from everything. The positions keep
    /// the copies out of the cells a copy's row samples for its list's first
    /// floor, so each copy's row lists 32 of its 41 zero cells, and its
    /// floor, the smallest value it left out, is zero too.
    fn floor_tie_dataset() -> Dataset {
        let fps = (0..96u32)
            .map(|u| {
                let points = if u % 16 >= 9 {
                    vec![(0, 0, 100), (2_000, 1_000, 700)]
                } else {
                    let d = i64::from(u);
                    vec![
                        (3_000 + 150 * d, 500 * (d % 3), 110 + u),
                        (2_000 + 90 * d, 1_000, 720 + 2 * u),
                    ]
                };
                Fingerprint::from_points(u, &points).unwrap()
            })
            .collect();
        Dataset::new("floor-ties", fps).unwrap()
    }

    #[test]
    fn a_list_tied_at_its_floor_never_decides_a_row() {
        let ds = floor_tie_dataset();
        let inputs: Vec<&Fingerprint> = ds.fingerprints.iter().collect();
        let config = GloveConfig::default();
        // The trap: a copy's row whose listed cells are exact zeros at its
        // zero floor, and which leaves out a copy that ties them below a
        // partner it lists. Once the listed copies below that partner have
        // merged away, the row's smallest listed cell equals its floor while
        // the copy left out ties it at a smaller partner index: a list hit at
        // `best == floor` would answer with the larger partner, and only a
        // full scan finds the smaller one.
        let arena = Arena::build(&inputs, &config, None);
        let trapped = arena.active.iter().any(|&i| {
            let list = &arena.lists[i];
            let zero = |j: usize| arena.cell(i, j) == (0.0, TIER_EXACT);
            let Some(&last) = list.partners.iter().max() else {
                return false;
            };
            list.floor == 0.0
                && list.partners.iter().all(|&j| zero(j as usize))
                && arena.active.iter().any(|&j| {
                    j != i && j < last as usize && zero(j) && !list.partners.contains(&(j as u32))
                })
        });
        assert!(
            trapped,
            "no row leaves out a tie at its floor below a listed one"
        );

        // Every stale rescan that meets the trap must scan in full, so the
        // run publishes the oracle's bytes with the oracle's merges.
        let run = |pruning| {
            let config = GloveConfig {
                pruning,
                ..GloveConfig::default()
            };
            anonymize(&ds, &config).unwrap()
        };
        let oracle = run(Pruning::Off);
        for out in [run(Pruning::Cascade), run(Pruning::HullOnly)] {
            assert_eq!(out.dataset.fingerprints, oracle.dataset.fingerprints);
            assert_eq!(out.stats.merges, oracle.stats.merges);
            assert_eq!(out.stats.suppressed, oracle.stats.suppressed);
            assert_eq!(out.stats.reshaped_samples, oracle.stats.reshaped_samples);
            assert_eq!(out.stats.candidate_pairs(), oracle.stats.pairs_computed);
        }
    }

    #[test]
    fn sample_ledger_books_every_slot_sample_at_full_width() {
        // Every fingerprint already hides k = 2 subscribers, so nothing
        // merges and the slots refer to exactly the input samples.
        let fps = toy_dataset(12)
            .fingerprints
            .iter()
            .map(|f| {
                let u = f.users()[0];
                Fingerprint::with_users(vec![2 * u, 2 * u + 1], f.samples().to_vec()).unwrap()
            })
            .collect();
        let ds = Dataset::new("hidden", fps).unwrap();
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        assert_eq!(out.stats.merges, 0);
        assert_eq!(
            out.stats.ledger.peak_store_bytes,
            (ds.num_samples() * std::mem::size_of::<Sample>()) as u64
        );
    }

    #[test]
    fn incremental_hulls_match_recomputation_after_merge_sequences() {
        // Satellite regression: drive arbitrary (seeded) merge sequences
        // through `merge_fingerprints` and check the O(1) union hull equals
        // the recomputed hull at every step, as long as nothing was
        // suppressed (the engine falls back to recomputation otherwise).
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let cfg = StretchConfig::default();
        for _round in 0..4 {
            let mut pool: Vec<Fingerprint> = (0..12u32)
                .map(|u| {
                    let base_x = (next() % 40_000) as i64;
                    let base_y = (next() % 40_000) as i64;
                    let base_t = (next() % 1_000) as u32;
                    Fingerprint::from_points(
                        u,
                        &[
                            (base_x, base_y, base_t),
                            (
                                base_x + (next() % 8_000) as i64,
                                base_y + (next() % 8_000) as i64,
                                base_t + 60 + (next() % 300) as u32,
                            ),
                            (
                                base_x - (next() % 5_000) as i64,
                                base_y,
                                base_t + 400 + (next() % 300) as u32,
                            ),
                        ],
                    )
                    .unwrap()
                })
                .collect();
            let mut hulls: Vec<StretchHull> = pool.iter().map(StretchHull::of).collect();
            while pool.len() > 1 {
                let i = (next() % pool.len() as u64) as usize;
                let mut j = (next() % pool.len() as u64) as usize;
                if i == j {
                    j = (j + 1) % pool.len();
                }
                let (i, j) = (i.min(j), i.max(j));
                let b_fp = pool.swap_remove(j);
                let b_hull = hulls.swap_remove(j);
                let a_fp = pool.swap_remove(i);
                let a_hull = hulls.swap_remove(i);
                let outcome =
                    merge_fingerprints(&a_fp, &b_fp, &cfg, &SuppressionThresholds::default())
                        .unwrap();
                assert_eq!(outcome.suppressed.samples, 0, "no thresholds, no drops");
                let union = a_hull.union(&b_hull, outcome.fingerprint.len());
                assert_eq!(
                    union,
                    StretchHull::of(&outcome.fingerprint),
                    "incremental hull diverged from recomputation"
                );
                hulls.push(union);
                pool.push(outcome.fingerprint);
            }
        }
    }

    #[test]
    fn release_check_rejects_a_group_below_its_k_floor() {
        // Hand-built releases: the check must refuse them in every build.
        let samples = vec![Sample::point(0, 0, 100)];
        let group = |users: Vec<UserId>| Fingerprint::with_users(users, samples.clone()).unwrap();
        let release = Dataset::new("broken", vec![group(vec![0, 1]), group(vec![2])]).unwrap();
        match check_k_floors(&release, 2, None) {
            Err(GloveError::InvalidDataset(msg)) => {
                assert!(
                    msg.contains("hides 1 subscribers") && msg.contains("k = 2"),
                    "{msg}"
                )
            }
            other => panic!("expected InvalidDataset, got {other:?}"),
        }
        // A pair meets a uniform k = 2, but not a plan that asks 3 for user 0.
        let pair = Dataset::new("pair", vec![group(vec![0, 1])]).unwrap();
        assert!(check_k_floors(&pair, 2, None).is_ok());
        let plan = KPlan::new(2, [(0, 3)].into_iter().collect());
        match check_k_floors(&pair, 2, Some(&plan)) {
            Err(GloveError::InvalidDataset(msg)) => {
                assert!(
                    msg.contains("hides 2 subscribers") && msg.contains("k = 3"),
                    "{msg}"
                )
            }
            other => panic!("expected InvalidDataset, got {other:?}"),
        }
    }

    #[test]
    fn throughput_counter_sane() {
        let ds = toy_dataset(10);
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        assert!(out.stats.pairs_per_second() > 0.0);
        assert!(out.stats.elapsed_s > 0.0);
        assert_eq!(
            out.stats.candidate_pairs(),
            out.stats.pairs_computed + out.stats.pairs_pruned
        );
    }
}
