//! Robustness of the canonical result decoder against damaged bytes.
//!
//! The disk store hands `JobResult::from_canonical_str` whatever is in
//! an entry file, so the decoder must never panic, and anything it does
//! accept must be a value the encoder can reproduce: every `Some(r)`
//! re-encodes to text that decodes back to `r`. The input is one real
//! canonical document (a small bitcnt run with every observability
//! class on), fed to the decoder truncated at every length and with
//! thousands of seeded single-byte mutations.

use dta_core::{run_job, JobResult, ObsMode, SimJob, SystemConfig};
use dta_workloads::{bitcnt, Variant};
use std::sync::Arc;

fn document() -> String {
    let wp = bitcnt::build(16, Variant::HandPrefetch);
    let mut cfg = SystemConfig::with_pes(2);
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 256;
    let result = run_job(&SimJob::new(Arc::new(wp.program), wp.args, cfg));
    assert!(result
        .outcome
        .as_ref()
        .is_ok_and(|o| o.obs.as_ref().is_some_and(|s| !s.is_empty())));
    let text = result.canonical_string();
    assert!(text.is_ascii());
    let decoded = JobResult::from_canonical_str(&text).expect("canonical text decodes");
    assert_eq!(decoded.canonical_string(), text);
    text
}

/// Checks the re-encode property for one accepted input.
fn assert_stable(r: &JobResult, what: &str) {
    let again = r.canonical_string();
    assert_eq!(
        JobResult::from_canonical_str(&again).as_ref(),
        Some(r),
        "{what}: the decoded result does not survive its own encoding"
    );
}

#[test]
fn every_truncation_reads_as_absent() {
    let text = document();
    for len in 0..text.len() {
        assert!(
            JobResult::from_canonical_str(&text[..len]).is_none(),
            "prefix of {len} of {} bytes decoded",
            text.len()
        );
    }
}

#[test]
fn single_byte_mutations_never_panic_and_accepted_ones_are_stable() {
    const ALPHABET: &[u8] = b"0123456789-+.eE\"\\,:[]{} \nnulltrueaz";
    let text = document();
    let mut state = 0x5EED_C0DE_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..4000 {
        let mut bytes = text.clone().into_bytes();
        let at = next() as usize % bytes.len();
        // Mostly bytes that mean something to the grammar; now and then
        // any ASCII byte, control characters included.
        let b = if i % 4 == 0 {
            next() as u8 & 0x7F
        } else {
            ALPHABET[next() as usize % ALPHABET.len()]
        };
        if bytes[at] == b {
            continue;
        }
        bytes[at] = b;
        let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        match JobResult::from_canonical_str(&mutated) {
            Some(r) => {
                accepted += 1;
                assert_stable(&r, &format!("mutation {i} (byte {at} -> {:?})", b as char));
            }
            None => rejected += 1,
        }
    }
    // Both sides must be exercised, or the test proves nothing.
    assert!(accepted > 100, "only {accepted} mutations decoded");
    assert!(rejected > 100, "only {rejected} mutations were refused");
}
