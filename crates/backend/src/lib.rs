//! # dsra-backend — execution backends behind one contract
//!
//! Every output the stack serves (DCT coefficients, motion vectors, encode
//! statistics) is produced by an *execution backend*: something that takes a
//! [`dsra_video::JobSpec`] and returns a deterministic
//! [`ExecOutcome`] — the cycles the payload
//! occupied an array plus a digest of its outputs. This crate defines the
//! [`Backend`] trait and three implementations:
//!
//! * [`ArrayBackend`] — the cycle-level array simulator (the production
//!   path, extracted from the runtime's worker loop): netlist-backed
//!   [`DctImpl`] mappings and the 2-D systolic ME array.
//! * [`GoldenBackend`] — a pure-software golden reference: direct-form
//!   fixed-point models of all six DCT mappings ([`GoldenDct`]) and a
//!   scalar full-search ME ([`golden_me_search`]), bit-exact by
//!   construction against the array datapaths.
//! * [`CheckBackend`] — the differential harness: runs every job through
//!   both and fails loudly on any divergence.
//!
//! The two real backends share one payload driver (`run_payload`), so the
//! checksum definition cannot drift between them; what the contract suite
//! exercises is the compute kernels underneath.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod array;
mod check;
mod golden;
mod mapping;

use dsra_core::error::{CoreError, Result};
use dsra_core::report::ExecOutcome;
use dsra_core::rng::{fnv1a_fold as mix, SplitMix64};
use dsra_dct::{DaParams, DctImpl};
use dsra_me::{MeSearchResult, Plane, SearchParams};
use dsra_video::{
    encode_frame, me_search_planes, EncodeConfig, JobPayload, JobSpec, SequenceConfig,
    SyntheticSequence,
};

pub use array::ArrayBackend;
pub use check::{CheckBackend, Divergence};
pub use golden::{golden_me_search, GoldenDct};
pub use mapping::DctMapping;

/// An execution backend: given a job, produce its deterministic outcome.
///
/// Implementations are owned per array (the runtime keeps one backend per
/// simulated array and reuses it across serve calls), so they may cache
/// compiled engines internally. `Send` because each worker thread owns one.
pub trait Backend: Send {
    /// Display name (`array`, `golden`, `check`, …).
    fn name(&self) -> &'static str;

    /// Executes one job payload and returns `(exec_cycles, checksum)`.
    ///
    /// `kernel_name` is the display name of the kernel the scheduler
    /// placed the job on (a [`DctMapping`] name for DCT/encode payloads;
    /// ME payloads carry their block size in the spec).
    ///
    /// # Errors
    /// Propagates engine construction and execution failures; the check
    /// backend additionally fails on any divergence between backends.
    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome>;
}

/// The selectable backend kinds (`soc_serve --backend {array,golden,check}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Cycle-level array simulator (the default production path).
    #[default]
    Array,
    /// Pure-software golden reference.
    Golden,
    /// Differential mode: run both, diff per job, fail on divergence.
    Check,
}

impl BackendKind {
    /// All kinds, in CLI documentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Array, BackendKind::Golden, BackendKind::Check];

    /// CLI / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Array => "array",
            BackendKind::Golden => "golden",
            BackendKind::Check => "check",
        }
    }

    /// Resolves a CLI name back to the kind.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds a fresh backend of this kind.
    pub fn build(self) -> Box<dyn Backend> {
        match self {
            BackendKind::Array => Box::new(ArrayBackend::default()),
            BackendKind::Golden => Box::new(GoldenBackend::default()),
            BackendKind::Check => Box::new(CheckBackend::default()),
        }
    }
}

/// The golden backend: software reference models only — no netlists, no
/// simulator. Caches one [`GoldenDct`] per (mapping, params): a model's
/// ROMs are programmed for the params it was built with.
#[derive(Default)]
pub struct GoldenBackend {
    dct_impls: std::collections::HashMap<(DctMapping, DaParams), GoldenDct>,
}

impl PayloadEngines for GoldenBackend {
    fn dct(&mut self, params: DaParams, mapping: DctMapping) -> Result<&dyn DctImpl> {
        Ok(match self.dct_impls.entry((mapping, params)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(GoldenDct::new(mapping, params)?)
            }
        })
    }

    fn me_search(
        &mut self,
        _block: u8,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        sp: &SearchParams,
    ) -> Result<MeSearchResult> {
        golden_me_search(cur, reference, bx, by, sp)
    }
}

impl Backend for GoldenBackend {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome> {
        run_payload(self, params, job, kernel_name)
    }
}

/// What a backend must provide to the shared payload driver: a (cached)
/// DCT implementation per (mapping, params) and a motion-search engine.
pub(crate) trait PayloadEngines {
    fn dct(&mut self, params: DaParams, mapping: DctMapping) -> Result<&dyn DctImpl>;

    #[allow(clippy::too_many_arguments)]
    fn me_search(
        &mut self,
        block: u8,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        sp: &SearchParams,
    ) -> Result<MeSearchResult>;
}

/// Executes one job payload against a set of engines and digests the
/// outputs. One definition shared by every backend, so the *contract* —
/// which values are folded, in which order, with which quantisation — is
/// identical by construction; backends differ only in how the values are
/// computed.
pub(crate) fn run_payload<E: PayloadEngines + ?Sized>(
    engines: &mut E,
    params: DaParams,
    job: &JobSpec,
    kernel_name: &str,
) -> Result<ExecOutcome> {
    let dct_mapping = |name: &str| {
        DctMapping::from_name(name)
            .ok_or_else(|| CoreError::Mismatch(format!("unknown DCT kernel `{name}`")))
    };
    let (exec_cycles, checksum) = match job.payload {
        JobPayload::DctBlocks { blocks, amplitude } => {
            let imp = engines.dct(params, dct_mapping(kernel_name)?)?;
            let mut rng = SplitMix64::new(job.seed);
            let mut cycles = 0u64;
            let mut sum = 0xA5A5_A5A5u64;
            for _ in 0..blocks {
                let x: [i64; 8] = std::array::from_fn(|_| {
                    rng.next_below(2 * amplitude as u64 + 1) as i64 - amplitude
                });
                let y = imp.transform(&x)?;
                cycles += imp.cycles_per_block();
                for v in y {
                    // Quantise to kill any last-bit noise before digesting.
                    sum = mix(sum, (v * 256.0).round() as i64 as u64);
                }
            }
            (cycles, sum)
        }
        JobPayload::MeSearch {
            size,
            shift,
            block,
            range,
        } => {
            let (w, h) = (usize::from(size.0), usize::from(size.1));
            let (b, rg) = (usize::from(block), usize::from(range));
            // Search a centred block; the full window (block ± range)
            // must fit inside the plane or the systolic feed would read
            // out of bounds.
            let (bx, by) = (w.saturating_sub(b) / 2, h.saturating_sub(b) / 2);
            if bx < rg || by < rg || bx + b + rg > w || by + b + rg > h {
                return Err(CoreError::Mismatch(format!(
                    "job {}: {w}x{h} plane too small for block {b} ± {rg} search",
                    job.id
                )));
            }
            let (cur, refp) = me_search_planes(size, shift, job.seed);
            let sp = SearchParams {
                block: b,
                range: i32::from(range),
            };
            let r = engines.me_search(block, &cur, &refp, bx, by, &sp)?;
            let mut sum = 0x5A5A_5A5Au64;
            sum = mix(sum, r.best.mv.0 as u64);
            sum = mix(sum, r.best.mv.1 as u64);
            sum = mix(sum, r.best.sad);
            sum = mix(sum, r.best.candidates);
            (r.cycles, sum)
        }
        JobPayload::EncodeGop {
            size,
            frames,
            noise,
        } => {
            let imp = engines.dct(params, dct_mapping(kernel_name)?)?;
            let seq = SyntheticSequence::generate(SequenceConfig {
                width: usize::from(size.0),
                height: usize::from(size.1),
                frames: usize::from(frames),
                noise,
                objects: 1,
                seed: job.seed,
                ..Default::default()
            });
            let cfg = EncodeConfig {
                search: SearchParams {
                    block: 16,
                    range: 2,
                },
                ..Default::default()
            };
            let mut cycles = 0u64;
            let mut sum = 0xC0DEu64;
            for f in 1..seq.frames().len() {
                let (_, stats) = encode_frame(seq.frame(f), seq.frame(f - 1), imp, &cfg)?;
                cycles += stats.dct_cycles;
                sum = mix(sum, stats.total_sad);
                sum = mix(sum, stats.estimated_bits);
                sum = mix(sum, stats.nonzero_levels as u64);
                sum = mix(sum, (stats.psnr_db * 1000.0).round() as i64 as u64);
            }
            (cycles, sum)
        }
    };
    Ok(ExecOutcome {
        exec_cycles,
        checksum,
    })
}
