//! The shipped `.dtasm` example programs must assemble, validate,
//! transform, and compute correct results.

use dta_compiler::{prefetch_program, TransformOptions};
use dta_core::{simulate, SystemConfig};
use dta_isa::asm::{assemble, program_to_asm};
use std::sync::Arc;

#[test]
fn dotprod_example_assembles_and_computes() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm/dotprod.dtasm"),
    )
    .expect("example file present");
    let program = assemble(&src).expect("assembles");
    assert!(dta_isa::validate_program(&program).is_empty());

    let expected: i32 = (1..=32).map(|i| i * (i + 1)).sum();
    let (_, sys) = simulate(SystemConfig::with_pes(4), Arc::new(program.clone()), &[]).unwrap();
    assert_eq!(sys.read_global_word("out", 0), Some(expected));

    // And the prefetched version agrees.
    let (pf, report) = prefetch_program(&program, &TransformOptions::default());
    assert_eq!(report.total_decoupled(), 2);
    // Its text form keeps everything, the compiler's fallback links too.
    assert!(pf.threads.iter().any(|t| t.fallback.is_some()));
    assert_eq!(assemble(&program_to_asm(&pf)).expect("reassembles"), pf);
    let (stats, sys) = simulate(SystemConfig::with_pes(4), Arc::new(pf), &[]).unwrap();
    assert_eq!(sys.read_global_word("out", 0), Some(expected));
    assert_eq!(stats.aggregate.reads, 0);
}
