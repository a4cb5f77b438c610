//! Cross-crate integration tests through the `dta` facade: assembler →
//! validator → prefetch compiler → simulator → verified results.

use dta::compiler::{prefetch_program, TransformOptions};
use dta::core::{simulate, GlobalRead, RunError, StallCat, System, SystemConfig};
use dta::isa::asm::{assemble, program_to_asm};
use dta::isa::validate_program;
use dta::workloads::{bitcnt, colsum, mmul, stencil, vecscale, zoom, Variant, WorkloadProgram};
use std::sync::Arc;

/// The full toolchain on a textual program: assemble, validate,
/// round-trip, auto-prefetch, simulate, verify.
#[test]
fn asm_to_simulation_pipeline() {
    let src = r#"
.global table words 5, 10, 15, 20, 25, 30, 35, 40
.global out zeroed 4
.entry main 0

.thread main
.frame_slots 0
.block ex
    li r3, 0x100000        ; table base
    li r4, 0               ; i
    li r5, 0               ; acc
top:
    bge r4, #8, done
    shl r6, r4, #2
    add r6, r3, r6
    read r7, 0(r6)
    add r5, r5, r7
    add r4, r4, #1
    jmp top
done:
    li r8, 0x100020        ; out (table is 32 bytes, 16-aligned)
.block ps
    write r5, 0(r8)
    ffree r1
    stop
.end
"#;
    let program = assemble(src).expect("assembles");
    assert!(validate_program(&program).is_empty());
    let round = assemble(&program_to_asm(&program)).expect("round-trips");
    assert_eq!(program.threads, round.threads);

    let (prefetched, report) = prefetch_program(&program, &TransformOptions::default());
    assert_eq!(report.total_decoupled(), 1);

    let expected = 5 + 10 + 15 + 20 + 25 + 30 + 35 + 40;
    for prog in [program, prefetched] {
        let (_, sys) = simulate(SystemConfig::with_pes(2), Arc::new(prog), &[]).unwrap();
        assert_eq!(sys.read_global_word("out", 0), Some(expected));
    }
}

/// Effective addresses wrap: `base + off` past `i64::MAX` lands on the
/// low 32 bits for the local store, in debug and release builds alike.
#[test]
fn effective_addresses_wrap_in_every_executor() {
    let src = r#"
.global out zeroed 4
.entry main 0

.thread main
.frame_slots 0
.block ex
    li r4, 0x7ffffffffffffffc
    li r6, 77
    lsstore r6, 8(r4)
    lsload r5, 8(r4)
    li r7, 0x100000
.block ps
    write r5, 0(r7)
    ffree r1
    stop
.end
"#;
    let program = Arc::new(assemble(src).expect("assembles"));
    let (_, sys) = simulate(SystemConfig::with_pes(1), program, &[]).unwrap();
    assert_eq!(sys.read_global_word("out", 0), Some(77));
}

/// A 2-node × 4-PE system computes what a 1-node × 8-PE system computes,
/// with the same instructions and instances, but it does not exercise
/// inter-node forwarding. A DSE forwards a FALLOC only once its own
/// node's frames are exhausted (the paper's §2 rule), and with 64 frames
/// per PE node 0 never runs out. So node 1 issues nothing and the 2×4
/// run uses four PEs; the per-node `issued` pins say so. The forwarding
/// test is `inter_node_forwarding_handles_frame_pressure`.
#[test]
fn multi_node_systems_compute_identical_results() {
    type Build = fn(usize, Variant) -> WorkloadProgram;
    type Verify = fn(&dyn GlobalRead, usize) -> Result<(), String>;
    let cases: [(Build, Verify, usize, [u64; 2]); 3] = [
        (mmul::build, mmul::verify, 16, [35_700, 0]),
        (zoom::build, zoom::verify, 16, [74_180, 0]),
        (bitcnt::build, bitcnt::verify, 200, [17_298, 0]),
    ];
    for (build, verify, n, want_issued) in cases {
        let run = |cfg: SystemConfig| {
            let wp = build(n, Variant::HandPrefetch);
            let (stats, sys) = simulate(cfg, Arc::new(wp.program), &wp.args).unwrap();
            verify(&sys, n).unwrap_or_else(|e| panic!("{}: {e}", wp.name));
            stats
        };
        let s1 = run(SystemConfig::with_pes(8));
        let mut cfg = SystemConfig::paper_default();
        cfg.nodes = 2;
        cfg.pes_per_node = 4;
        let s2 = run(cfg);

        assert_eq!(s1.instructions, s2.instructions);
        assert_eq!(s1.instances, s2.instances);
        let issued: Vec<u64> = s2
            .per_pe
            .chunks(4)
            .map(|node| node.iter().map(|pe| pe.issued).sum())
            .collect();
        assert_eq!(issued, want_issued, "per-node issued (n = {n})");
        assert_eq!(issued[0], s2.instructions, "node 0 issues everything");
        // Node 1 idles, so the 2×4 run issues on half as many PEs as the
        // 1×8 run: 1×8 takes 0.55–0.73 of its cycles on these sizes.
        let ratio = s1.cycles as f64 / s2.cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "n = {n}: ratio {ratio}");
    }
}

/// Forwarding kicks in when one node's frames are exhausted: a tiny
/// 2-node machine with 2 frames per PE still completes a fork storm.
#[test]
fn inter_node_forwarding_handles_frame_pressure() {
    let wp = bitcnt::build(64, Variant::Baseline);
    let mut cfg = SystemConfig::paper_default();
    cfg.nodes = 2;
    cfg.pes_per_node = 2;
    cfg.frame_capacity = 8;
    let (stats, sys) = simulate(cfg, Arc::new(wp.program), &wp.args).unwrap();
    bitcnt::verify(&sys, 64).unwrap();
    assert!(stats.instances > 64);
}

/// Every workload × every variant verifies on the paper platform.
#[test]
fn all_workloads_all_variants_verify() {
    let cfg = SystemConfig::with_pes(8);
    for variant in Variant::ALL {
        let check = |wp: dta::workloads::WorkloadProgram,
                     verify: &dyn Fn(&System) -> Result<(), String>| {
            let (_, sys) = simulate(cfg.clone(), Arc::new(wp.program), &wp.args)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", wp.name, variant.label()));
            verify(&sys).unwrap_or_else(|e| panic!("[{}] {e}", variant.label()));
        };
        check(mmul::build(8, variant), &|s| mmul::verify(s, 8));
        check(zoom::build(8, variant), &|s| zoom::verify(s, 8));
        check(bitcnt::build(96, variant), &|s| bitcnt::verify(s, 96));
        check(vecscale::build(64, 4, variant), &|s| {
            vecscale::verify(s, 64)
        });
        check(stencil::build(64, 4, variant), &|s| stencil::verify(s, 64));
        check(colsum::build(16, variant), &|s| colsum::verify(s, 16));
    }
}

/// The headline result, at reduced scale: prefetching wins big on the
/// memory-bound kernels, modestly on bitcnt, and the bound follows the
/// paper's ordering zoom ≈ mmul ≫ bitcnt.
#[test]
fn paper_speedup_ordering_holds() {
    let cfg = SystemConfig::with_pes(8);
    let speedup = |base: dta::workloads::WorkloadProgram, pf: dta::workloads::WorkloadProgram| {
        let (b, _) = simulate(cfg.clone(), Arc::new(base.program), &base.args).unwrap();
        let (p, _) = simulate(cfg.clone(), Arc::new(pf.program), &pf.args).unwrap();
        b.cycles as f64 / p.cycles as f64
    };
    let mmul_s = speedup(
        mmul::build(16, Variant::Baseline),
        mmul::build(16, Variant::HandPrefetch),
    );
    let zoom_s = speedup(
        zoom::build(16, Variant::Baseline),
        zoom::build(16, Variant::HandPrefetch),
    );
    let bitcnt_s = speedup(
        bitcnt::build(512, Variant::Baseline),
        bitcnt::build(512, Variant::HandPrefetch),
    );
    assert!(mmul_s > 5.0, "mmul speedup {mmul_s:.2}");
    assert!(zoom_s > 5.0, "zoom speedup {zoom_s:.2}");
    assert!(
        bitcnt_s > 0.9 && bitcnt_s < 3.0,
        "bitcnt speedup {bitcnt_s:.2}"
    );
    assert!(mmul_s > bitcnt_s && zoom_s > bitcnt_s);
}

/// Breakdown categories always partition total time, for every PE, on
/// every workload/variant.
#[test]
fn breakdowns_partition_execution_time() {
    for variant in Variant::ALL {
        let wp = zoom::build(8, variant);
        let (stats, _) =
            simulate(SystemConfig::with_pes(4), Arc::new(wp.program), &wp.args).unwrap();
        for pe in &stats.per_pe {
            assert_eq!(pe.total_cycles(), stats.cycles, "{variant:?}");
        }
    }
}

/// Run statistics serialise (the harness persists them as JSON).
#[test]
fn run_stats_serialise_to_json() {
    use dta_json::{parse, Json, ToJson};
    let wp = vecscale::build(32, 2, Variant::AutoPrefetch);
    let (stats, _) = simulate(SystemConfig::with_pes(2), Arc::new(wp.program), &wp.args).unwrap();
    let json = stats.to_json();
    let back = parse(&json.to_string_pretty()).unwrap();
    assert_eq!(back, json);
    assert_eq!(
        back.get("cycles").and_then(Json::as_u64),
        Some(stats.cycles)
    );
    assert_eq!(back.get("aggregate"), json.get("aggregate"));
}

/// A cycle limit surfaces as an error rather than a hang.
#[test]
fn cycle_limit_is_enforced() {
    let wp = mmul::build(16, Variant::Baseline);
    let mut cfg = SystemConfig::with_pes(1);
    cfg.max_cycles = 10_000;
    let err = simulate(cfg, Arc::new(wp.program), &[]).unwrap_err();
    assert!(
        matches!(err, RunError::CycleLimit { cycle: 10_000, .. }),
        "{err}"
    );
    if let RunError::CycleLimit { live, pes, .. } = err {
        assert!(live > 0, "a spinning mmul has live instances to report");
        assert!(!pes.is_empty());
    }
}

/// The latency-1 bound flips bitcnt: prefetch overhead outweighs the
/// benefit when memory is free (paper §4.3).
#[test]
fn latency_one_makes_bitcnt_prefetch_a_loss() {
    let cfg = SystemConfig::with_pes(8).latency_one();
    let base = bitcnt::build(512, Variant::Baseline);
    let pf = bitcnt::build(512, Variant::HandPrefetch);
    let (b, _) = simulate(cfg.clone(), Arc::new(base.program), &base.args).unwrap();
    let (p, _) = simulate(cfg, Arc::new(pf.program), &pf.args).unwrap();
    assert!(
        p.cycles >= b.cycles,
        "prefetch {} should not beat baseline {} at latency 1",
        p.cycles,
        b.cycles
    );
}

/// Memory stalls vanish from prefetched kernels even at 1 PE, where
/// there is no other thread to hide behind — the DMA engine itself does
/// the overlapping.
#[test]
fn single_pe_prefetch_still_removes_memory_stalls() {
    let wp = zoom::build(8, Variant::HandPrefetch);
    let (stats, _) = simulate(SystemConfig::with_pes(1), Arc::new(wp.program), &wp.args).unwrap();
    assert!(stats.breakdown().frac(StallCat::MemStall) < 0.05);
}
