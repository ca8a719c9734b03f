//! Pure-software golden reference models: the same fixed-point arithmetic
//! the arrays compute, without a netlist or a cycle-level simulator.
//!
//! Every model reproduces its array datapath *bit-for-bit*: samples are
//! encoded with the same two's-complement widths, ROM words come from the
//! same [`da_rom_contents`] tables, and the shift-accumulator recurrence
//! (add the aligned ROM word, subtract on the sign cycle, arithmetic-shift
//! right) is replayed in plain integer arithmetic. A golden transform is
//! therefore byte-equal to the simulated one — not merely close — which is
//! what lets the differential harness assert checksum equality instead of
//! tolerances.
//!
//! As in the arrays, the ROMs are programmed once, when a [`GoldenDct`] is
//! built (the hardware writes them at configuration time); a transform only
//! streams addresses through those fixed tables and allocates nothing.

use dsra_core::error::Result;
use dsra_core::fixed::{from_signed, mask, to_signed};
use dsra_core::netlist::Netlist;
use dsra_dct::da::{da_rom_contents, encode_sample};
use dsra_dct::factor::{odd_target, solve_sandwich, solve_scaled_sandwich, M4};
use dsra_dct::reference::{alpha, dct_coeff};
use dsra_dct::scc::{exponent_of, scc_odd_coeff};
use dsra_dct::{DaParams, DctImpl};
use dsra_me::reference::candidate_valid;
use dsra_me::systolic2d::MODULES;
use dsra_me::{full_search, MeSearchResult, Plane, SearchParams};

use crate::mapping::DctMapping;

/// Butterfly datapath width of the even/odd and CORDIC structures
/// (sign-extended from the input width; mirrors the arrays' stage width).
const STAGE_WIDTH: u8 = 16;

/// Longest serial stream a lane can replay (bit `t` of a `u64` stream).
const MAX_BITS: usize = 64;

/// The address sequence a group of serialisers presents to every ROM on
/// their shared bus: bit `i` of the address at serial step `t` is bit `t`
/// of `streams[i]`. Built once per block and replayed by each lane.
struct Bus {
    addrs: [u16; MAX_BITS],
    bits: usize,
}

impl Bus {
    fn new(streams: &[u64], bits: u8) -> Self {
        let mut addrs = [0u16; MAX_BITS];
        for (t, addr) in addrs[..usize::from(bits)].iter_mut().enumerate() {
            for (i, s) in streams.iter().enumerate() {
                *addr |= (((s >> t) & 1) as u16) << i;
            }
        }
        Bus {
            addrs,
            bits: usize::from(bits),
        }
    }
}

/// One programmed DA lane: its ROM's words, each sign-extended from
/// `rom_width` and shifted left by `align()` — exactly the operand the
/// shift-accumulator cluster adds when that address is presented.
struct Lane {
    words: Box<[i64]>,
}

impl Lane {
    /// Programs the ROM of a DA unit with coefficients `coeffs`.
    fn program(coeffs: &[f64], params: &DaParams) -> Self {
        let align = u32::from(params.align());
        let words = da_rom_contents(coeffs, params.q())
            .into_iter()
            .map(|w| to_signed(w, params.rom_width) << align)
            .collect();
        Lane { words }
    }

    /// Replays the shift-accumulator over the bus's address sequence: add
    /// the addressed word, subtract it on the final (sign) cycle, and
    /// arithmetic-shift right each step, wrapping to `acc_width` — the
    /// shift-accumulator cluster's update rule.
    fn replay(&self, bus: &Bus, acc_width: u8) -> u64 {
        let mut acc = 0u64;
        for (t, &addr) in bus.addrs[..bus.bits].iter().enumerate() {
            let word = self.words[usize::from(addr)];
            let operand = if t + 1 == bus.bits { -word } else { word };
            acc = from_signed((to_signed(acc, acc_width) + operand) >> 1, acc_width);
        }
        acc
    }
}

/// Programs one lane per coefficient row.
fn program_rows<const N: usize, const K: usize>(
    rows: &[[f64; K]; N],
    params: &DaParams,
) -> [Lane; N] {
    std::array::from_fn(|r| Lane::program(&rows[r], params))
}

/// Encodes the input block exactly as the array input pins see it: each
/// sample masked to `input_bits` and re-signed (out-of-range samples wrap,
/// as they would in hardware).
fn encode_block(x: &[i64; 8], input_bits: u8) -> [i64; 8] {
    std::array::from_fn(|i| to_signed(encode_sample(x[i], input_bits), input_bits))
}

/// Mod-2^16 butterfly node: the 16-bit adder/subtracter clusters wrap.
fn stage(v: i64) -> i64 {
    to_signed(from_signed(v, STAGE_WIDTH), STAGE_WIDTH)
}

/// Direct DA (Fig. 4 / Fig. 9): eight serialised inputs address per-output
/// ROMs `lanes[u]`. `perm[slot]` is the input index wired to serialiser
/// `slot` — the identity for the basic DA, Li's exponent reordering for the
/// full SCC.
fn direct_transform(
    x: &[i64; 8],
    params: &DaParams,
    perm: &[usize; 8],
    lanes: &[Lane; 8],
) -> [f64; 8] {
    let bits = params.input_bits;
    let xe = encode_block(x, bits);
    let streams: [u64; 8] = std::array::from_fn(|slot| encode_sample(xe[perm[slot]], bits));
    let bus = Bus::new(&streams, bits);
    std::array::from_fn(|u| params.decode_acc(lanes[u].replay(&bus, params.acc_width), bits))
}

/// Even/odd split (Fig. 5 / Fig. 8): 16-bit butterfly sums `a_n` and
/// differences `b_n` feed 4-input DA lanes over `input_bits + 2` serial
/// cycles. `odd[k]` holds the odd-part table (plain DCT rows for the
/// Mixed-ROM, the skew-circular rotation for the SCC).
fn even_odd_transform(
    x: &[i64; 8],
    params: &DaParams,
    even: &[Lane; 4],
    odd: &[Lane; 4],
) -> [f64; 8] {
    let bits = params.input_bits + 2;
    let xe = encode_block(x, params.input_bits);
    let sa: [u64; 4] = std::array::from_fn(|n| from_signed(xe[n] + xe[7 - n], STAGE_WIDTH));
    let sb: [u64; 4] = std::array::from_fn(|n| from_signed(xe[n] - xe[7 - n], STAGE_WIDTH));
    let (bus_a, bus_b) = (Bus::new(&sa, bits), Bus::new(&sb, bits));
    let mut y = [0.0; 8];
    for k in 0..4 {
        y[2 * k] = params.decode_acc(even[k].replay(&bus_a, params.acc_width), bits);
        y[2 * k + 1] = params.decode_acc(odd[k].replay(&bus_b, params.acc_width), bits);
    }
    y
}

/// Phase schedule of the two-phase CORDIC drivers (mirrors the private
/// `Schedule` in `dsra_dct::cordic`, formula for formula).
#[derive(Debug, Clone, Copy)]
struct Sched {
    b1: u8,
    presh: u8,
    b2: u8,
}

impl Sched {
    fn for_params(params: &DaParams, max_row_norm: f64) -> Self {
        let b1 = params.input_bits + 2;
        let b2 = params.acc_width - params.rom_width; // keep phase 2 exact
        let p_bits = (max_row_norm.log2()
            + f64::from(params.input_bits)
            + f64::from(params.rom_frac)
            + f64::from(params.align())
            - f64::from(b1))
        .ceil() as i32
            + 1;
        let presh = (p_bits + 2 - i32::from(b2)).max(1) as u8;
        Sched { b1, presh, b2 }
    }

    fn phase2_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.b2) - i32::from(params.align()) - i32::from(params.rom_frac)
            + i32::from(self.presh)
            - i32::from(params.rom_frac)
            - i32::from(params.align())
            + i32::from(self.b1)
    }

    fn stream_exp(&self, params: &DaParams) -> i32 {
        i32::from(self.presh) - i32::from(params.rom_frac) - i32::from(params.align())
            + i32::from(self.b1)
    }

    fn cycles(&self) -> u64 {
        1 + u64::from(self.b1) + u64::from(self.presh) + u64::from(self.b2) + 1
    }
}

/// Extracts (columns, sign) of a ±1 butterfly row with exactly two nonzeros.
fn row_ops(row: &[f64; 4]) -> (usize, usize, bool) {
    let nz: Vec<usize> = (0..4).filter(|&c| row[c].abs() > 0.5).collect();
    assert_eq!(nz.len(), 2, "butterfly rows have two operands");
    assert!(row[nz[0]] > 0.0, "library rows lead with +1");
    (nz[0], nz[1], row[nz[1]] < 0.0)
}

/// The DA rows of the CORDIC even outputs, in the order `y0, y4` (fed by
/// `u0, u1`) then `y2, y6` (fed by `u2, u3`).
fn cordic_even_rows() -> [[f64; 2]; 4] {
    let a = alpha(1);
    let a0 = alpha(0);
    let c4 = (std::f64::consts::PI / 4.0).cos();
    let c2 = (std::f64::consts::PI / 8.0).cos();
    let s2 = (std::f64::consts::PI / 8.0).sin();
    [
        [a0, a0],
        [a * c4, -a * c4],
        [a * s2, a * c2],
        [-a * c2, a * s2],
    ]
}

/// The shared CORDIC front end: 16-bit `a`/`b` butterflies, then the `u`
/// stage over the sums. Returns the raw `b_n` serial streams and the signed
/// `u` values.
fn cordic_front(x: &[i64; 8], params: &DaParams) -> ([u64; 4], [i64; 4]) {
    let xe = encode_block(x, params.input_bits);
    let a: [i64; 4] = std::array::from_fn(|n| stage(xe[n] + xe[7 - n]));
    let b: [u64; 4] = std::array::from_fn(|n| from_signed(xe[n] - xe[7 - n], STAGE_WIDTH));
    let u = [
        stage(a[0] + a[3]),
        stage(a[1] + a[2]),
        stage(a[1] - a[2]),
        stage(a[0] - a[3]),
    ];
    (b, u)
}

/// Phase-1 X rotators, presh discard and serial butterfly, shared by both
/// CORDIC odd paths.
struct OddFront {
    sched: Sched,
    /// Which `b` streams each X rotator consumes.
    x_pairs: [(usize, usize); 2],
    /// `x[bi][r]`: the ROM producing `p[x_pairs[bi].r]`.
    x: [[Lane; 2]; 2],
    /// Butterfly rows as `(c1, c2, subtract)`.
    butterfly: [(usize, usize, bool); 4],
}

impl OddFront {
    fn program(
        sched: Sched,
        x_pairs: ((usize, usize), (usize, usize)),
        x_blocks: &[[[f64; 2]; 2]; 2],
        butterfly: &M4,
        params: &DaParams,
    ) -> Self {
        OddFront {
            sched,
            x_pairs: [x_pairs.0, x_pairs.1],
            x: std::array::from_fn(|bi| program_rows(&x_blocks[bi], params)),
            butterfly: std::array::from_fn(|r| row_ops(&butterfly[r])),
        }
    }

    /// Returns `H_r = A'_{c1} ± A'_{c2}` where `A'` is the presh-discarded
    /// phase-1 accumulator.
    fn h(&self, b: &[u64; 4], params: &DaParams) -> [i64; 4] {
        let mut p = [0u64; 4];
        for (&(i, j), lanes) in self.x_pairs.iter().zip(&self.x) {
            let bus = Bus::new(&[b[i], b[j]], self.sched.b1);
            p[i] = lanes[0].replay(&bus, params.acc_width);
            p[j] = lanes[1].replay(&bus, params.acc_width);
        }
        let ap: [i64; 4] = std::array::from_fn(|r| {
            to_signed(p[r], params.acc_width) >> u32::from(self.sched.presh)
        });
        self.butterfly.map(|(c1, c2, sub)| {
            if sub {
                ap[c1] - ap[c2]
            } else {
                ap[c1] + ap[c2]
            }
        })
    }
}

/// Fig. 6 two-phase sandwich factorization: `even` holds the `y0, y4, y2,
/// y6` lanes, `y[bi][r]` the Y rotator producing odd output `y_pairs[bi].r`.
fn cordic1_transform(
    x: &[i64; 8],
    params: &DaParams,
    odd: &OddFront,
    y_pairs: &[(usize, usize); 2],
    y_lanes: &[[Lane; 2]; 2],
    even: &[Lane; 4],
) -> [f64; 8] {
    let sched = odd.sched;
    let (b, u) = cordic_front(x, params);
    let su: [u64; 4] = std::array::from_fn(|i| from_signed(u[i], STAGE_WIDTH));
    let bus01 = Bus::new(&[su[0], su[1]], sched.b1);
    let bus23 = Bus::new(&[su[2], su[3]], sched.b1);
    let decode =
        |lane: &Lane, bus: &Bus| params.decode_acc(lane.replay(bus, params.acc_width), sched.b1);
    let mut y = [0.0; 8];
    y[0] = decode(&even[0], &bus01);
    y[4] = decode(&even[1], &bus01);
    y[2] = decode(&even[2], &bus23);
    y[6] = decode(&even[3], &bus23);

    let h = odd.h(&b, params);
    let exp = sched.phase2_exp(params);
    for (&(i, j), lanes) in y_pairs.iter().zip(y_lanes) {
        // Phase 2: the Y rotators accumulate the serial H streams for b2
        // cycles (sub on the last); H's two's-complement bits are exactly
        // what the serial adders emit.
        let bus = Bus::new(&[h[i] as u64, h[j] as u64], sched.b2);
        for (out, lane) in [i, j].into_iter().zip(lanes) {
            let raw = lane.replay(&bus, params.acc_width);
            y[2 * out + 1] = to_signed(raw, params.acc_width) as f64 * 2f64.powi(exp);
        }
    }
    y
}

/// Fig. 7 scaled factorization with serial output taps: `even` holds the
/// `y2, y6` lanes.
fn cordic2_transform(
    x: &[i64; 8],
    params: &DaParams,
    odd: &OddFront,
    post_pair: (usize, usize),
    scales: &[f64; 4],
    even: &[Lane; 2],
) -> [f64; 8] {
    let sched = odd.sched;
    let (b, u) = cordic_front(x, params);
    let mut y = [0.0; 8];
    // X0/X4 leave the array as parallel 16-bit adder outputs; the scale
    // factors are applied driver-side (standing in for the quantiser).
    y[0] = stage(u[0] + u[1]) as f64 * alpha(0);
    y[4] = stage(u[0] - u[1]) as f64 * alpha(1) * (std::f64::consts::PI / 4.0).cos();
    let bus23 = Bus::new(&[u[2], u[3]].map(|v| from_signed(v, STAGE_WIDTH)), sched.b1);
    y[2] = params.decode_acc(even[0].replay(&bus23, params.acc_width), sched.b1);
    y[6] = params.decode_acc(even[1].replay(&bus23, params.acc_width), sched.b1);

    let h = odd.h(&b, params);
    let (pi, pj) = post_pair;
    let exp = sched.stream_exp(params);
    for r in 0..4 {
        // The serial post network combines the post pair and passes the
        // rest; the driver samples b2 stream bits, so the decoded value is
        // the low-b2 window of the integer combination.
        let comb = if r == pi {
            h[pi] + h[pj]
        } else if r == pj {
            h[pi] - h[pj]
        } else {
            h[r]
        };
        let stream = mask(comb as u64, sched.b2);
        y[2 * r + 1] = to_signed(stream, sched.b2) as f64 * 2f64.powi(exp) * scales[r];
    }
    y
}

/// Which software model a [`GoldenDct`] replays, with its programmed ROMs.
enum Model {
    /// Fig. 4 / Fig. 9 direct DA; `perm[slot]` = input index in that slot,
    /// `lanes[u]` = the ROM of output `u`.
    Direct { perm: [usize; 8], lanes: [Lane; 8] },
    /// Fig. 5 / Fig. 8 even/odd split.
    EvenOdd { even: [Lane; 4], odd: [Lane; 4] },
    /// Fig. 6 two-phase sandwich factorization.
    Cordic1 {
        odd: OddFront,
        y_pairs: [(usize, usize); 2],
        y: [[Lane; 2]; 2],
        even: [Lane; 4],
    },
    /// Fig. 7 scaled factorization with serial output taps.
    Cordic2 {
        odd: OddFront,
        post_pair: (usize, usize),
        scales: [f64; 4],
        even: [Lane; 2],
    },
}

/// A software golden reference for one DCT mapping, bit-exact against the
/// simulated array and exposing the same [`DctImpl`] interface (including
/// `cycles_per_block`, so encode payloads cost identically). The netlist
/// is an empty placeholder — there is no hardware here.
pub struct GoldenDct {
    mapping: DctMapping,
    params: DaParams,
    netlist: Netlist,
    cycles: u64,
    model: Model,
}

impl GoldenDct {
    /// Builds the golden model for `mapping`, programming every DA lane's
    /// ROM for `params` once, as the array's configuration does.
    ///
    /// # Errors
    /// Never fails today; `Result` mirrors [`DctMapping::build`] so the two
    /// construction paths stay interchangeable.
    pub fn new(mapping: DctMapping, params: DaParams) -> Result<Self> {
        let max_row_norm = |blocks: &[[[f64; 2]; 2]; 2]| {
            blocks
                .iter()
                .flat_map(|b| b.iter())
                .map(|row| row[0].abs() + row[1].abs())
                .fold(0.0f64, f64::max)
        };
        let direct = |perm: [usize; 8]| Model::Direct {
            perm,
            lanes: program_rows(
                &std::array::from_fn(|u| perm.map(|i| dct_coeff(u, i))),
                &params,
            ),
        };
        let rows = |f: fn(usize, usize) -> f64| -> [[f64; 4]; 4] {
            std::array::from_fn(|k| std::array::from_fn(|n| f(k, n)))
        };
        let even_odd = |odd: fn(usize, usize) -> f64| Model::EvenOdd {
            even: program_rows(&rows(|k, n| dct_coeff(2 * k, n)), &params),
            odd: program_rows(&rows(odd), &params),
        };
        let even_rows = cordic_even_rows();
        let (model, cycles) = match mapping {
            DctMapping::BasicDa => (
                direct(std::array::from_fn(|i| i)),
                u64::from(params.input_bits) + 2,
            ),
            DctMapping::SccFull => {
                // Input i sits in serialiser slot e where (2i+1) ≡ ±3^e
                // (mod 32); perm maps slots back to inputs.
                let mut perm = [0usize; 8];
                for i in 0..8 {
                    perm[exponent_of(2 * i + 1)] = i;
                }
                (direct(perm), u64::from(params.input_bits) + 2)
            }
            DctMapping::MixedRom => (
                even_odd(|k, n| dct_coeff(2 * k + 1, n)),
                u64::from(params.input_bits) + 4,
            ),
            DctMapping::SccEvenOdd => (even_odd(scc_odd_coeff), u64::from(params.input_bits) + 4),
            DctMapping::Cordic1 => {
                let fact = solve_sandwich(&odd_target());
                let sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                let model = Model::Cordic1 {
                    odd: OddFront::program(
                        sched,
                        fact.x_pairs,
                        &fact.x_blocks,
                        &fact.butterfly,
                        &params,
                    ),
                    y_pairs: [fact.y_pairs.0, fact.y_pairs.1],
                    y: std::array::from_fn(|bi| program_rows(&fact.y_blocks[bi], &params)),
                    even: program_rows(&even_rows, &params),
                };
                (model, sched.cycles())
            }
            DctMapping::Cordic2 => {
                let fact = solve_scaled_sandwich(&odd_target());
                let mut sched = Sched::for_params(&params, max_row_norm(&fact.x_blocks));
                // Streams pass two serial levels: one extra guard bit.
                sched.presh += 1;
                let model = Model::Cordic2 {
                    odd: OddFront::program(
                        sched,
                        fact.x_pairs,
                        &fact.x_blocks,
                        &fact.butterfly,
                        &params,
                    ),
                    post_pair: fact.post_pair,
                    scales: fact.scales,
                    even: program_rows(&[even_rows[2], even_rows[3]], &params),
                };
                (model, sched.cycles())
            }
        };
        Ok(GoldenDct {
            mapping,
            params,
            netlist: Netlist::new("golden"),
            cycles,
            model,
        })
    }

    /// The mapping this model mirrors.
    pub fn mapping(&self) -> DctMapping {
        self.mapping
    }
}

impl DctImpl for GoldenDct {
    fn name(&self) -> &'static str {
        self.mapping.name()
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn params(&self) -> &DaParams {
        &self.params
    }

    fn transform(&self, x: &[i64; 8]) -> Result<[f64; 8]> {
        let params = &self.params;
        Ok(match &self.model {
            Model::Direct { perm, lanes } => direct_transform(x, params, perm, lanes),
            Model::EvenOdd { even, odd } => even_odd_transform(x, params, even, odd),
            Model::Cordic1 {
                odd,
                y_pairs,
                y,
                even,
            } => cordic1_transform(x, params, odd, y_pairs, y, even),
            Model::Cordic2 {
                odd,
                post_pair,
                scales,
                even,
            } => cordic2_transform(x, params, odd, *post_pair, scales, even),
        })
    }

    fn cycles_per_block(&self) -> u64 {
        self.cycles
    }
}

/// Scalar golden motion search: the best match comes from the plain
/// software [`full_search`] (which already walks candidates in the systolic
/// array's column-major, first-wins order), and the cycle/bandwidth
/// counters are computed analytically from the array's batch schedule —
/// `MODULES` candidates per streaming pass, `n + MODULES - 1` staggered
/// row cycles, one drain cycle per candidate, plus the comparator reset
/// and settle cycles.
///
/// # Errors
/// Never fails today; `Result` mirrors the simulated engine's signature.
pub fn golden_me_search(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    params: &SearchParams,
) -> Result<MeSearchResult> {
    let n = params.block;
    let p = params.range;
    let mut cycles = 1u64; // comparator reset
    let mut ref_fetches = 0u64;
    let mut ref_fetches_naive = 0u64;
    let mut cur_fetches = 0u64;
    for dx in -p..=p {
        let mut dy_base = -p;
        while dy_base <= p {
            let batch: Vec<(usize, i32)> = (0..MODULES)
                .map(|m| (m, dy_base + m as i32))
                .filter(|&(_, dy)| dy <= p && candidate_valid(reference, bx, by, dx, dy, n))
                .collect();
            dy_base += MODULES as i32;
            if batch.is_empty() {
                continue;
            }
            ref_fetches_naive += (batch.len() * n * n) as u64;
            // mclr + streaming window + one drain cycle per candidate.
            cycles += 1 + (n + MODULES - 1) as u64 + batch.len() as u64;
            cur_fetches += (n * n) as u64;
            let dy0 = i64::from(batch[0].1) - batch[0].0 as i64;
            for t in 0..(n + MODULES - 1) {
                let ry = by as i64 + dy0 + t as i64;
                let row_needed = batch.iter().any(|&(m, _)| t >= m && t < m + n);
                if row_needed && ry >= 0 && (ry as usize) < reference.height() {
                    ref_fetches += n as u64;
                }
            }
        }
    }
    cycles += 1; // registered comparator settle
    Ok(MeSearchResult {
        best: full_search(cur, reference, bx, by, params),
        cycles,
        ref_fetches,
        ref_fetches_naive,
        cur_fetches,
    })
}
