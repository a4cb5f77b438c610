//! Report rendering and persistence.

use crate::experiments::ExperimentResult;
use crate::runner::Row;
use dta_json::{Json, ToJson};
use std::fs;
use std::io::Write as _;
use std::path::Path;

impl ToJson for Row {
    fn to_json(&self) -> Json {
        let (total, loads, stores, reads, writes) = self.table5;
        Json::obj([
            ("bench", self.bench.to_json()),
            ("variant", self.variant.to_json()),
            ("pes", self.pes.to_json()),
            ("mem_latency", self.mem_latency.to_json()),
            ("cycles", self.cycles.to_json()),
            ("breakdown", self.breakdown.to_json()),
            ("table5", [total, loads, stores, reads, writes].to_json()),
            ("instances", self.instances.to_json()),
            ("dma_commands", self.dma_commands.to_json()),
            ("bus_utilisation", self.bus_utilisation.to_json()),
            ("sp_pf_cycles", self.sp_pf_cycles.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("verified", self.verified.to_json()),
            ("fault_rate_ppm", self.fault_rate_ppm.to_json()),
            ("fault_seed", self.fault_seed.to_json()),
            ("dma_retries", self.dma_retries.to_json()),
            ("dma_exhausted", self.dma_exhausted.to_json()),
            ("degraded_pes", self.degraded_pes.to_json()),
            ("fallback_instances", self.fallback_instances.to_json()),
            ("dse_crashes", self.dse_crashes.to_json()),
            ("failovers", self.failovers.to_json()),
            ("rehomed_fallocs", self.rehomed_fallocs.to_json()),
            ("resync_msgs", self.resync_msgs.to_json()),
            ("lse_crashes", self.lse_crashes.to_json()),
            ("evacuated_frames", self.evacuated_frames.to_json()),
            ("readmitted_instances", self.readmitted_instances.to_json()),
            ("killed_instances", self.killed_instances.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
            ("obs_mode", self.obs_mode.to_json()),
            ("obs_events", self.obs_events.to_json()),
            ("obs_dropped", self.obs_dropped.to_json()),
            ("overlap_cycles", self.overlap_cycles.to_json()),
            ("overlap_fraction", self.overlap_fraction.to_json()),
            ("visited_cycles", self.visited_cycles.to_json()),
            ("pe_ticks", self.pe_ticks.to_json()),
            ("skipped_ticks", self.skipped_ticks.to_json()),
            ("run_wall_us", self.run_wall_us.to_json()),
            ("pe_deliveries", self.pe_deliveries.to_json()),
            ("dse_deliveries", self.dse_deliveries.to_json()),
            ("mem_requests", self.mem_requests.to_json()),
            ("wake_heap_mean", self.wake_heap_mean.to_json()),
            ("wake_heap_max", self.wake_heap_max.to_json()),
            ("job_key", self.job_key.to_json()),
            ("cache_hit", self.cache_hit.to_json()),
        ])
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", self.id.to_json()),
            ("title", self.title.to_json()),
            ("rows", self.rows.to_json()),
            ("text", self.text.to_json()),
        ];
        if let Some(health) = &self.health {
            fields.push(("health", health.clone()));
        }
        if let Some(profile) = &self.profile {
            fields.push(("profile", profile.clone()));
        }
        Json::obj(fields)
    }
}

/// Renders rows of cells as an aligned text table (first row = header).
pub fn text_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Prints an experiment to stdout and saves its JSON next to the text.
pub fn emit(result: &ExperimentResult, out_dir: Option<&Path>) -> std::io::Result<()> {
    println!("== {} ==", result.title);
    println!("{}", result.text);
    if let Some(dir) = out_dir {
        fs::create_dir_all(dir)?;
        let json = result.to_json().to_string_pretty();
        fs::write(dir.join(format!("{}.json", result.id)), json)?;
        let mut f = fs::File::create(dir.join(format!("{}.txt", result.id)))?;
        writeln!(f, "== {} ==", result.title)?;
        writeln!(f, "{}", result.text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = text_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["wide-cell".into(), "x".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3); // header, rule, one row
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
        // Both data columns aligned under headers.
        let hpos = lines[0].find("long-header").unwrap();
        let xpos = lines[2].find('x').unwrap();
        assert_eq!(hpos, xpos);
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(text_table(&[]).is_empty());
    }
}
