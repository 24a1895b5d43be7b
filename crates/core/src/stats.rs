//! The `--timings` report: [`PipelineStats::render_timings`] formats the
//! process-wide pipeline counters ([`pipeline_stats`](crate::pipeline_stats))
//! for `repro --timings`, the `wholeprogram` binary's timing block and the
//! allocation server's `--timings` exit report. A regression test pins the
//! rendering byte-for-byte, so scripts reading those stderr lines can rely
//! on it.

use crate::pipeline::{PipelineStats, Stage};
use std::fmt::Write as _;

impl PipelineStats {
    /// The `--timings` stderr block: the stage table and the solves line.
    /// Each line is `\n`-terminated; print with `eprint!`, not `eprintln!`.
    ///
    /// # Examples
    ///
    /// ```
    /// let text = lemra_core::pipeline_stats().render_timings();
    /// assert!(text.starts_with("-- pipeline stage timings --"));
    /// ```
    pub fn render_timings(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- pipeline stage timings --");
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>12} {:>12}",
            "stage", "runs", "total ms", "peak KiB"
        );
        for stage in Stage::ALL {
            let t = self.stage(stage);
            let _ = writeln!(
                out,
                "  {:<10} {:>7} {:>12.3} {:>12.1}",
                stage.name(),
                t.runs,
                t.nanos as f64 / 1e6,
                t.bytes as f64 / 1024.0
            );
        }
        let _ = writeln!(
            out,
            "  solves: {} warm, {} cold; {} dijkstra rounds, {} units pushed, {} incidents",
            self.warm_solves,
            self.cold_solves,
            self.solver.dijkstra_rounds,
            self.solver.pushed_units,
            self.solver.incidents
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `--timings` rendering byte-for-byte, so the three call
    /// sites can never drift apart.
    #[test]
    fn render_timings_format_is_pinned() {
        let zero = PipelineStats::default();
        let expected = "\
-- pipeline stage timings --
  stage         runs     total ms     peak KiB
  segment          0        0.000          0.0
  profile          0        0.000          0.0
  build            0        0.000          0.0
  canon            0        0.000          0.0
  solve            0        0.000          0.0
  bind             0        0.000          0.0
  validate         0        0.000          0.0
  solves: 0 warm, 0 cold; 0 dijkstra rounds, 0 units pushed, 0 incidents
";
        assert_eq!(zero.render_timings(), expected);
    }

    #[test]
    fn render_timings_carries_the_counters() {
        let mut stats = PipelineStats::default();
        stats.warm_solves = 3;
        stats.cold_solves = 2;
        stats.solver.incidents = 1;
        let text = stats.render_timings();
        assert!(text.contains("solves: 3 warm, 2 cold;"));
        assert!(text.contains("1 incidents"));
    }
}
