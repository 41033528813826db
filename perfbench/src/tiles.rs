//! The `tiles-accurate` and `tiles-functional` workloads.
//!
//! Six dense tiles (BP, conv and FC, each under the paper's
//! hand-written schedule and under its checked-in tuned schedule) plus,
//! on the accurate engine, a latency-bound pointer chase. Each pass
//! stages every tile afresh (timed as set-up: memory images through
//! the `vip-kernels` layouts, programs through the `vip-kernels`
//! generators) and then runs them one after another on one engine
//! (timed as the pass). Every run's outputs are compared with the
//! `vip-kernels` golden references, and once per process the dense
//! tiles are also run on the other engine: its outputs must match too,
//! and the two cycle counts give the functional tier's cycle error.

use std::time::Instant;

use vip_core::{cycles_to_ms, SimError, StallReason, System, SystemConfig, SystemStats, CLOCK_HZ};
use vip_kernels::bp::{self, bp_iteration_programs, BpLayout, Messages, Mrf, MrfParams};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, ConvMode, FcLayer};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::schedule::{BpSchedule, ConvSchedule, FcSchedule, Schedule};
use vip_kernels::sync::i16s_to_bytes;
use vip_mem::MemConfig;
use vip_rng::SplitMix64;

use crate::trace::Tracer;
use crate::{
    geomean, keep_going, median, tail_percentile, trace_summary, Args, HostSpeed, Outcome, Timed,
};

/// Which engine the timed passes use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven cycle-accurate engine (`System::run`).
    Accurate,
    /// Two-tier functional engine (`System::run_functional`).
    Functional,
}

impl Engine {
    fn run(self, sys: &mut System, limit: u64) -> Result<u64, SimError> {
        match self {
            Engine::Accurate => sys.run(limit),
            Engine::Functional => sys.run_functional(limit),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Engine::Accurate => "core.run",
            Engine::Functional => "core.run_functional",
        }
    }

    fn other(self) -> Engine {
        match self {
            Engine::Accurate => Engine::Functional,
            Engine::Functional => Engine::Accurate,
        }
    }
}

const BP_GRID: (usize, usize, usize) = (64, 32, 16);
const BP_ITERS: usize = 4;
const CONV_CHANNELS: (usize, usize) = (64, 64);
/// The conv tile's filter grouping under the paper's schedule.
const CONV_FILTERS_PER_GROUP: usize = 2;
const FC_SHAPE: (usize, usize) = (2048, 256);
/// Pointer-chase links: long enough that the chase's host time is
/// comparable to one dense tile's.
const CHASE_LINKS: u64 = 1 << 18;
/// Cycle budget before a tile counts as hung.
const LIMIT: u64 = 80_000_000;

/// The checked-in tuned schedules, compiled in by path: the benchmark
/// never consults the working directory or `VIP_SCHEDULE_DIR`.
const TUNED_BP: (&str, &str) = (
    "bp-64x32x16-3cdde84238850c23.json",
    include_str!("../../schedules/bp-64x32x16-3cdde84238850c23.json"),
);
const TUNED_CONV: (&str, &str) = (
    "conv-64x64x16x8-3cdde84238850c23.json",
    include_str!("../../schedules/conv-64x64x16x8-3cdde84238850c23.json"),
);
const TUNED_FC: (&str, &str) = (
    "fc-2048x256-3cdde84238850c23.json",
    include_str!("../../schedules/fc-2048x256-3cdde84238850c23.json"),
);

/// Every tile name either workload can report, for the per-layer
/// metric list.
const TILE_NAMES: &[&str] = &[
    "bp_paper",
    "bp_tuned",
    "conv_paper",
    "conv_tuned",
    "fc_paper",
    "fc_tuned",
    "chase",
];

fn config() -> SystemConfig {
    SystemConfig::single_vault(MemConfig::baseline())
}

fn conv_layer() -> ConvLayer {
    ConvLayer {
        name: "tile",
        in_channels: CONV_CHANNELS.0,
        out_channels: CONV_CHANNELS.1,
        width: 16,
        height: 8,
        kernel: 3,
        pad: 1,
    }
}

fn fc_layer() -> FcLayer {
    FcLayer {
        name: "tile",
        inputs: FC_SHAPE.0,
        outputs: FC_SHAPE.1,
    }
}

#[derive(Clone, Copy)]
enum Kernel {
    Bp(BpSchedule),
    Conv(ConvSchedule),
    Fc(FcSchedule),
    Chase,
}

struct Tile {
    name: &'static str,
    kernel: Kernel,
}

/// Parses a checked-in schedule artifact, refusing one tuned for a
/// different machine configuration or kernel shape.
fn tuned(artifact: (&str, &str), fingerprint: u64) -> Result<Schedule, String> {
    let (file, text) = artifact;
    if !file.ends_with(&format!("-{fingerprint:016x}.json")) {
        return Err(format!(
            "{file}: tuned for another configuration (this one is {fingerprint:016x})"
        ));
    }
    let sched = Schedule::from_json(text).map_err(|e| format!("{file}: {e}"))?;
    let (w, h, l) = BP_GRID;
    let valid = match &sched {
        Schedule::Bp(s) => s.validate(w, h, l).is_ok(),
        Schedule::Conv(s) => s.validate(&conv_layer()).is_ok(),
        Schedule::Fc(s) => s.validate(&fc_layer()).is_ok(),
    };
    if !file.starts_with(sched.kernel()) || !valid {
        return Err(format!(
            "{file}: schedule does not fit the benchmark's tile"
        ));
    }
    Ok(sched)
}

fn tile_set(engine: Engine) -> Result<Vec<Tile>, String> {
    let fp = config().snapshot_fingerprint();
    let (Schedule::Bp(bp_tuned), Schedule::Conv(conv_tuned), Schedule::Fc(fc_tuned)) = (
        tuned(TUNED_BP, fp)?,
        tuned(TUNED_CONV, fp)?,
        tuned(TUNED_FC, fp)?,
    ) else {
        return Err("tuned schedule artifacts name the wrong kernels".into());
    };
    let mut tiles = vec![
        Tile {
            name: "bp_paper",
            kernel: Kernel::Bp(BpSchedule::default()),
        },
        Tile {
            name: "bp_tuned",
            kernel: Kernel::Bp(bp_tuned),
        },
        Tile {
            name: "conv_paper",
            kernel: Kernel::Conv(ConvSchedule::default_for(
                &conv_layer(),
                CONV_FILTERS_PER_GROUP,
            )),
        },
        Tile {
            name: "conv_tuned",
            kernel: Kernel::Conv(conv_tuned),
        },
        Tile {
            name: "fc_paper",
            kernel: Kernel::Fc(FcSchedule::default()),
        },
        Tile {
            name: "fc_tuned",
            kernel: Kernel::Fc(fc_tuned),
        },
    ];
    if engine == Engine::Accurate {
        tiles.push(Tile {
            name: "chase",
            kernel: Kernel::Chase,
        });
    }
    Ok(tiles)
}

/// The seeded tile data. Small magnitudes, like the repository's own
/// tile inputs, so the 16-bit arithmetic rarely saturates.
struct Inputs {
    mrf: Mrf,
    conv_input: Vec<i16>,
    conv_weights: Vec<i16>,
    conv_bias: Vec<i16>,
    fc_input: Vec<i16>,
    fc_weights: Vec<i16>,
    fc_bias: Vec<i16>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7469_6c65);
        let mut values = |n: usize, lo: i64, hi: i64| -> Vec<i16> {
            (0..n).map(|_| rng.i64_in(lo..hi + 1) as i16).collect()
        };
        let (w, h, l) = BP_GRID;
        let conv = conv_layer();
        let fc = fc_layer();
        let conv_raw = values(conv.width * conv.height * conv.in_channels, -5, 5);
        Inputs {
            mrf: Mrf::new(
                MrfParams::truncated_linear(w, h, l, 2, 12),
                bp::stereo_data_costs(w, h, l, seed),
            ),
            conv_input: cnn::pad_input(
                conv.width,
                conv.height,
                conv.in_channels,
                conv.pad,
                &conv_raw,
            ),
            conv_weights: values(conv.weights(), -3, 7),
            conv_bias: values(conv.out_channels, -2, 8),
            fc_input: values(fc.inputs, -5, 5),
            fc_weights: values(fc.inputs * fc.outputs, -5, 5),
            fc_bias: values(fc.outputs, -2, 8),
        }
    }
}

/// Where a staged tile's results live.
enum Reader {
    Bp(BpLayout),
    Conv(ConvLayout),
    Fc(FcLayout),
    /// The chase's final cursor and iteration count.
    Chase,
}

struct Staged {
    sys: System,
    limit: u64,
    reader: Reader,
}

/// Builds the system, writes the tile's memory image and generates and
/// loads its programs.
fn stage(tile: &Tile, inp: &Inputs, t: &mut Tracer) -> Staged {
    let image = format!("mem.image_load.{}", tile.name);
    let codegen = format!("kernels.codegen.{}", tile.name);
    let (mut sys, programs, reader) = match tile.kernel {
        Kernel::Bp(s) => {
            let (w, h, l) = BP_GRID;
            let layout = BpLayout::with_row_pad(0, w, h, l, s.row_pad);
            let sys = t.span(&image, |_| {
                let mut sys = System::new(config());
                let init = Messages::new_unnormalized(&inp.mrf.params);
                layout.load_into(sys.hmc_mut(), &inp.mrf, &init);
                sys
            });
            let programs = t.span(&codegen, |_| {
                bp_iteration_programs(&layout, &s, BP_ITERS, false)
            });
            (sys, programs, Reader::Bp(layout))
        }
        Kernel::Conv(s) => {
            let layout = ConvLayout {
                layer: conv_layer(),
                input_base: 0,
                weights_base: 0x40_0100,
                bias_base: 0x80_0200,
                output_base: 0xc0_0300,
                filters_per_group: s.filters_per_group,
                mode: ConvMode::Full,
            };
            let sys = t.span(&image, |_| {
                let mut sys = System::new(config());
                layout.load_into(
                    sys.hmc_mut(),
                    &inp.conv_input,
                    &inp.conv_weights,
                    &inp.conv_bias,
                );
                sys
            });
            let programs = t.span(&codegen, |_| conv_tile_programs(&layout, &s));
            (sys, programs, Reader::Conv(layout))
        }
        Kernel::Fc(s) => {
            let layout = FcLayout {
                layer: fc_layer(),
                input_base: 0,
                weights_base: 0x10_0100,
                bias_base: 0x80_0200,
                output_base: 0x90_0300,
                relu: true,
            };
            let sys = t.span(&image, |_| {
                let mut sys = System::new(config());
                layout.load_into_scheduled(
                    sys.hmc_mut(),
                    &s,
                    &inp.fc_input,
                    &inp.fc_weights,
                    &inp.fc_bias,
                );
                sys
            });
            let programs = t.span(&codegen, |_| mlp::fc_tile_programs(&layout, &s));
            (sys, programs, Reader::Fc(layout))
        }
        Kernel::Chase => {
            // The stager writes the chain and assembles the chase and
            // the idle PEs' programs; the chain dominates its time.
            let (sys, limit) = t.span(&image, |_| {
                vip_bench::experiments::mem_latency_tile_sim(MemConfig::baseline(), CHASE_LINKS)
                    .into_system()
            });
            return Staged {
                sys,
                limit,
                reader: Reader::Chase,
            };
        }
    };
    t.span(&format!("core.load_program.{}", tile.name), |_| {
        for (pe, p) in programs.iter().enumerate() {
            sys.load_program(pe, p);
        }
    });
    Staged {
        sys,
        limit: LIMIT,
        reader,
    }
}

/// The chase's first link address, where the full cycle ends.
fn chase_base() -> u64 {
    let mem = MemConfig::baseline();
    (mem.row_bytes * mem.banks_per_vault) as u64
}

fn chase_result(cursor: u64, iterations: u64) -> Vec<u8> {
    [cursor.to_le_bytes(), iterations.to_le_bytes()].concat()
}

/// Reads a finished tile's results as bytes.
fn read(st: &Staged) -> Vec<u8> {
    let hmc = st.sys.hmc();
    match &st.reader {
        Reader::Bp(layout) => {
            let m = layout.read_messages(hmc, false);
            i16s_to_bytes(&[m.from_above, m.from_below, m.from_left, m.from_right].concat())
        }
        Reader::Conv(layout) => {
            let l = layout.layer;
            let out = cnn::unpad_output(
                l.width,
                l.height,
                l.out_channels,
                l.pad,
                &layout.read_output(hmc),
            );
            i16s_to_bytes(&out)
        }
        Reader::Fc(layout) => i16s_to_bytes(&layout.read_output(hmc)),
        Reader::Chase => {
            let pe = st.sys.pe(0);
            chase_result(pe.reg(vip_isa::Reg::new(1)), pe.reg(vip_isa::Reg::new(2)))
        }
    }
}

/// The golden result for a tile, from the `vip-kernels` references.
fn golden(tile: &Tile, inp: &Inputs) -> Vec<u8> {
    match tile.kernel {
        Kernel::Bp(_) => {
            let mut m = Messages::new_unnormalized(&inp.mrf.params);
            for _ in 0..BP_ITERS {
                bp::iteration(&inp.mrf, &mut m);
            }
            i16s_to_bytes(&[m.from_above, m.from_below, m.from_left, m.from_right].concat())
        }
        Kernel::Conv(_) => {
            let l = conv_layer();
            let out =
                cnn::conv_forward(&l, &inp.conv_input, &inp.conv_weights, &inp.conv_bias, true);
            i16s_to_bytes(&cnn::unpad_output(
                l.width,
                l.height,
                l.out_channels,
                l.pad,
                &out,
            ))
        }
        Kernel::Fc(s) => i16s_to_bytes(&mlp::fc_forward_kc(
            &fc_layer(),
            &inp.fc_input,
            &inp.fc_weights,
            &inp.fc_bias,
            true,
            s.kc,
        )),
        Kernel::Chase => chase_result(chase_base(), CHASE_LINKS / 8),
    }
}

/// One tile's result in one pass.
struct TileRun {
    cycles: u64,
    stats: SystemStats,
    host: Timed,
}

/// Per-layer metric names and units this module reports.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("kernels.codegen_s".to_string(), "s"),
        ("mem.image_load_s".to_string(), "s"),
    ];
    for t in TILE_NAMES {
        v.push((format!("core.run_s.{t}"), "s"));
        v.push((format!("core.ns_per_instr.{t}"), "ns"));
        v.push((format!("core.instructions.{t}"), "count"));
    }
    for r in StallReason::all() {
        v.push((format!("core.stall_cycles.{r:?}"), "cycles"));
    }
    for (n, u) in [
        ("core.func.block_hit_ratio", "ratio"),
        ("core.func.blocks_decoded", "count"),
        ("core.func.accurate_share", "ratio"),
        ("core.func.windows", "count"),
        ("core.func.drain_retries", "count"),
        ("mem.row_hit_ratio", "ratio"),
        ("mem.row_conflicts", "count"),
        ("mem.busy_frac", "ratio"),
        ("mem.avg_latency_cycles", "cycles"),
        ("mem.bytes", "B"),
        ("noc.packets", "count"),
        ("noc.link_busy_frac", "ratio"),
        ("snap.save_s", "s"),
        ("snap.restore_s", "s"),
        ("snap.bytes", "B"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a tiles workload on `engine`.
pub fn run(args: &Args, engine: Engine, tracer: &mut Tracer) -> Result<Outcome, String> {
    let tiles = tile_set(engine)?;
    let inputs = Inputs::new(args.seed);
    let goldens: Vec<Vec<u8>> = tiles.iter().map(|t| golden(t, &inputs)).collect();
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    // Per pass: traced or not, and the per-tile runs.
    let mut passes: Vec<(bool, Vec<TileRun>)> = Vec::new();
    let mut speed = HostSpeed::default();
    let start = Instant::now();
    // The traced run alternates untraced and traced passes, so the
    // tracing overhead is measured under the same conditions.
    let per_mode = |n: usize| if args.trace { n / 2 } else { n };
    while keep_going(start, args.seconds, per_mode(passes.len())) {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.pass = passes.len() as u32;
        tracer.set_on(traced);
        speed.sample();

        let t0 = Instant::now();
        let mut staged: Vec<Staged> = tracer.span("bench.setup", |t| {
            tiles.iter().map(|tile| stage(tile, &inputs, t)).collect()
        });
        setup_s.push(speed.timed(t0.elapsed().as_secs_f64()));

        let results: Vec<(Result<u64, SimError>, Timed)> = tracer.span("bench.pass", |t| {
            staged
                .iter_mut()
                .zip(&tiles)
                .map(|(st, tile)| {
                    t.span("bench.calibrate", |_| speed.sample());
                    let t2 = Instant::now();
                    let r = t.span(&format!("{}.{}", engine.span(), tile.name), |_| {
                        engine.run(&mut st.sys, st.limit)
                    });
                    (r, speed.timed(t2.elapsed().as_secs_f64()))
                })
                .collect()
        });
        tracer.set_on(false);

        let mut runs = Vec::new();
        for (((r, host), st), (tile, gold)) in results
            .into_iter()
            .zip(&staged)
            .zip(tiles.iter().zip(&goldens))
        {
            out.attempted += 1;
            match r {
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{}: {e}", tile.name));
                }
                Ok(cycles) => {
                    if read(st) != *gold {
                        out.failed += 1;
                        out.mismatch(format!("{}: output differs from golden", tile.name));
                    }
                    runs.push(TileRun {
                        cycles,
                        stats: st.sys.stats(),
                        host,
                    });
                }
            }
        }
        if runs.len() != tiles.len() {
            return Ok(out);
        }
        if let Some((_, first)) = passes.first() {
            for ((a, b), tile) in first.iter().zip(&runs).zip(&tiles) {
                if a.cycles != b.cycles || a.stats != b.stats {
                    out.mismatch(format!(
                        "{}: simulated statistics differ between passes",
                        tile.name
                    ));
                }
            }
        }
        passes.push((traced, runs));
    }

    let untraced: Vec<&(bool, Vec<TileRun>)> = passes.iter().filter(|p| !p.0).collect();
    let first = &passes[0].1;
    // Each tile's median run over a set of passes, raw or at reference
    // speed; a pass is the sum of those medians.
    let tile_median = |set: &[&(bool, Vec<TileRun>)], i: usize, host: fn(&Timed) -> f64| {
        median(&set.iter().map(|p| host(&p.1[i].host)).collect::<Vec<_>>())
    };
    let pass_median = |set: &[&(bool, Vec<TileRun>)], host: fn(&Timed) -> f64| -> f64 {
        (0..tiles.len()).map(|i| tile_median(set, i, host)).sum()
    };

    // The other engine, once, over the dense tiles: same outputs, and
    // the functional tier's cycle estimate against the exact count.
    let mut worst_err: f64 = 0.0;
    for (i, tile) in tiles.iter().enumerate() {
        if matches!(tile.kernel, Kernel::Chase) {
            continue;
        }
        let mut st = stage(tile, &inputs, tracer);
        let other = engine.other().run(&mut st.sys, st.limit);
        out.attempted += 1;
        match other {
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("{} on the other engine: {e}", tile.name));
            }
            Ok(cycles) => {
                if read(&st) != goldens[i] {
                    out.failed += 1;
                    out.mismatch(format!("{}: engines disagree on outputs", tile.name));
                }
                let (exact, estimate) = match engine {
                    Engine::Accurate => (first[i].cycles, cycles),
                    Engine::Functional => (cycles, first[i].cycles),
                };
                let err = (estimate as f64 - exact as f64) / exact as f64 * 100.0;
                println!(
                    "{:<11} exact {exact:>10} cycles  functional {estimate:>10}  error {err:+.3}%",
                    tile.name
                );
                worst_err = worst_err.max(err.abs());
            }
        }
    }

    let cycles: Vec<u64> = first.iter().map(|r| r.cycles).collect();
    let mut sorted = cycles.clone();
    sorted.sort_unstable();
    let tail_p = tail_percentile(sorted.len());
    let pct = |p: u64| cycles_to_ms(vip_serve::metrics::percentile(&sorted, p).unwrap_or(0));
    let sim_s: f64 = cycles.iter().map(|&c| c as f64 / CLOCK_HZ).sum();
    println!(
        "{} passes ({} untraced), {} tiles per pass, latency tail = p{tail_p}",
        passes.len(),
        untraced.len(),
        tiles.len()
    );
    for (i, tile) in tiles.iter().enumerate() {
        println!(
            "{:<11} median host {:.6} s, {:.6} s at reference speed",
            tile.name,
            tile_median(&untraced, i, Timed::raw),
            tile_median(&untraced, i, Timed::scaled)
        );
    }
    let host_metrics = |host: fn(&Timed) -> f64| {
        let mcps: Vec<f64> = (0..tiles.len())
            .map(|i| cycles[i] as f64 / tile_median(&untraced, i, host) / 1e6)
            .collect();
        [
            median(&setup_s.iter().map(host).collect::<Vec<_>>()),
            pass_median(&untraced, host),
            geomean(&mcps),
        ]
    };
    let [raw, scaled] = [host_metrics(Timed::raw), host_metrics(Timed::scaled)];
    speed.report(
        &mut out,
        [raw[0], scaled[0]],
        [raw[1], scaled[1]],
        [raw[2], scaled[2]],
    );
    out.set("sim_cycles", cycles.iter().sum::<u64>() as f64);
    out.set("cycle_err_pct", worst_err);
    out.set("sim_latency_ms.p50", pct(50));
    out.set("sim_latency_ms.tail", pct(tail_p));
    out.set("sim_goodput_rps", tiles.len() as f64 / sim_s);

    if args.trace {
        let traced: Vec<&(bool, Vec<TileRun>)> = passes.iter().filter(|p| p.0).collect();
        let run_s: Vec<f64> = (0..tiles.len())
            .map(|i| tile_median(&traced, i, Timed::raw))
            .collect();
        per_layer(tracer, &mut out, &tiles, &traced, &run_s);
        if engine == Engine::Accurate {
            snapshot_probe(tracer, &mut out, &tiles, &inputs, &goldens, first);
        }
        trace_summary(
            tracer,
            &mut out,
            pass_median(&traced, Timed::raw),
            pass_median(&untraced, Timed::raw),
        );
    }
    Ok(out)
}

fn per_layer(
    tracer: &Tracer,
    out: &mut Outcome,
    tiles: &[Tile],
    traced: &[&(bool, Vec<TileRun>)],
    run_s: &[f64],
) {
    let n = traced.len() as f64;
    let prefixed = |p: &str| -> f64 {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(p))
            .map(|s| s.dur())
            .sum::<f64>()
            / n
    };
    out.set("kernels.codegen_s", prefixed("kernels.codegen."));
    out.set("mem.image_load_s", prefixed("mem.image_load."));

    let runs = &traced[0].1;
    let mut total = SystemStats {
        cycles: 0,
        pe: Default::default(),
        mem: Default::default(),
        noc: Default::default(),
        func: Default::default(),
    };
    for (i, (tile, r)) in tiles.iter().zip(runs).enumerate() {
        let run_s = run_s[i];
        let instr = r.stats.pe.instructions;
        out.set(format!("core.run_s.{}", tile.name), run_s);
        out.set(
            format!("core.ns_per_instr.{}", tile.name),
            run_s * 1e9 / instr.max(1) as f64,
        );
        out.set(format!("core.instructions.{}", tile.name), instr as f64);

        let s = &r.stats;
        total.cycles += s.cycles;
        for (a, b) in total.pe.stalls.iter_mut().zip(s.pe.stalls) {
            *a += b;
        }
        let (f, g) = (&mut total.func, &s.func);
        f.blocks_decoded += g.blocks_decoded;
        f.block_cache_hits += g.block_cache_hits;
        f.block_cache_misses += g.block_cache_misses;
        f.functional_cycles += g.functional_cycles;
        f.accurate_cycles += g.accurate_cycles;
        f.windows += g.windows;
        f.drain_retries += g.drain_retries;
        let (m, k) = (&mut total.mem, &s.mem);
        m.reads += k.reads;
        m.writes += k.writes;
        m.bytes_read += k.bytes_read;
        m.bytes_written += k.bytes_written;
        m.row_hits += k.row_hits;
        m.row_misses += k.row_misses;
        m.row_conflicts += k.row_conflicts;
        m.total_latency_cycles += k.total_latency_cycles;
        m.busy_cycles += k.busy_cycles;
        m.elapsed_cycles += k.elapsed_cycles;
        total.noc.packets += s.noc.packets;
        total.noc.link_busy_cycles += s.noc.link_busy_cycles;
        total.noc.elapsed_cycles += s.noc.elapsed_cycles;
    }
    for r in StallReason::all() {
        out.set(
            format!("core.stall_cycles.{r:?}"),
            total.pe.stalls[r as usize] as f64,
        );
    }
    let f = &total.func;
    out.set(
        "core.func.block_hit_ratio",
        ratio(
            f.block_cache_hits,
            f.block_cache_hits + f.block_cache_misses,
        ),
    );
    out.set("core.func.blocks_decoded", f.blocks_decoded as f64);
    out.set(
        "core.func.accurate_share",
        ratio(f.accurate_cycles, f.accurate_cycles + f.functional_cycles),
    );
    out.set("core.func.windows", f.windows as f64);
    out.set("core.func.drain_retries", f.drain_retries as f64);
    let m = &total.mem;
    out.set(
        "mem.row_hit_ratio",
        ratio(m.row_hits, m.row_hits + m.row_misses + m.row_conflicts),
    );
    out.set("mem.row_conflicts", m.row_conflicts as f64);
    out.set("mem.busy_frac", ratio(m.busy_cycles, m.elapsed_cycles));
    out.set(
        "mem.avg_latency_cycles",
        ratio(m.total_latency_cycles, m.reads + m.writes),
    );
    out.set("mem.bytes", (m.bytes_read + m.bytes_written) as f64);
    out.set("noc.packets", total.noc.packets as f64);
    out.set(
        "noc.link_busy_frac",
        ratio(total.noc.link_busy_cycles, total.noc.elapsed_cycles),
    );
}

/// Pauses each dense tile half way (`run_until`), snapshots it,
/// restores the snapshot onto a fresh system and runs it to the end:
/// the resumed run must finish on the same cycle with golden outputs.
fn snapshot_probe(
    tracer: &mut Tracer,
    out: &mut Outcome,
    tiles: &[Tile],
    inputs: &Inputs,
    goldens: &[Vec<u8>],
    first: &[TileRun],
) {
    tracer.set_on(true);
    tracer.pass = u32::MAX;
    let (mut save_s, mut restore_s, mut bytes) = (0.0, 0.0, 0usize);
    for (i, tile) in tiles.iter().enumerate() {
        if matches!(tile.kernel, Kernel::Chase) {
            continue;
        }
        let mut paused = stage(tile, inputs, tracer);
        let exact = first[i].cycles;
        let name = tile.name;
        let half = tracer.span(&format!("core.run_until.{name}"), |_| {
            paused.sys.run_until(exact / 2, paused.limit)
        });
        if !matches!(half, Ok(vip_core::RunOutcome::Paused(_))) {
            out.mismatch(format!("{name}: did not pause half way ({half:?})"));
            continue;
        }
        let t0 = Instant::now();
        let snap = tracer.span(&format!("snap.save_snapshot.{name}"), |_| {
            paused.sys.save_snapshot()
        });
        save_s += t0.elapsed().as_secs_f64();
        bytes += snap.len();
        let mut resumed = Staged {
            sys: System::new(config()),
            limit: paused.limit,
            reader: paused.reader,
        };
        let t1 = Instant::now();
        let restored = tracer.span(&format!("snap.restore_snapshot.{name}"), |_| {
            resumed.sys.restore_snapshot(&snap)
        });
        restore_s += t1.elapsed().as_secs_f64();
        if let Err(e) = restored {
            out.mismatch(format!("{name}: snapshot restore failed: {e}"));
            continue;
        }
        let end = tracer.span(&format!("core.run.{name}"), |_| {
            resumed.sys.run(resumed.limit)
        });
        if end.as_ref().ok() != Some(&exact) || read(&resumed) != goldens[i] {
            out.mismatch(format!(
                "{name}: snapshot-resumed run differs ({end:?} vs {exact} cycles)"
            ));
        }
    }
    tracer.set_on(false);
    out.set("snap.save_s", save_s);
    out.set("snap.restore_s", restore_s);
    out.set("snap.bytes", bytes as f64);
}
