//! The five workloads. Each stresses a different layer of the stack; the
//! module docs say which, and what a change to that layer should move.

mod dist_block_tcp;
mod session_tcp;
mod spec_inproc;
mod store;

use std::path::Path;

use crate::protocol::{run, Cfg, Outcome, Workload};

/// Run the workload called `name`; `trace_out` is where a traced run
/// writes its span list (`None` for a plain run).
pub fn run_named(name: &str, cfg: &Cfg, trace_out: Option<&Path>) -> Option<Outcome> {
    Some(match name {
        spec_inproc::SpecInproc::NAME => run::<spec_inproc::SpecInproc>(cfg, trace_out),
        store::StoreFork::NAME => run::<store::StoreFork>(cfg, trace_out),
        store::StoreWrite::NAME => run::<store::StoreWrite>(cfg, trace_out),
        session_tcp::SessionTcp::NAME => run::<session_tcp::SessionTcp>(cfg, trace_out),
        dist_block_tcp::DistBlockTcp::NAME => run::<dist_block_tcp::DistBlockTcp>(cfg, trace_out),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// Every workload in the manifest runs (tiny slices), passes its own
    /// output checks, and reports every metric of its kind.
    #[test]
    fn every_listed_workload_runs_clean_in_smoke_mode() {
        let cfg = Cfg {
            seed: 1989,
            seconds: 1.0,
            smoke: true,
        };
        let out =
            std::env::temp_dir().join(format!("worlds-benchmark-test-{}", std::process::id()));
        for w in &WORKLOADS {
            let plain = run_named(w.name, &cfg, None).expect("listed workload exists");
            assert_eq!(plain.failed, 0, "{}: plain run failed ops", w.name);
            assert!(plain.attempted > 0);
            assert_eq!(plain.metrics.len(), crate::metrics::END_TO_END.len());
            assert!(
                plain.metrics.iter().all(|(_, v)| *v > 0.0),
                "{}: {:?}",
                w.name,
                plain.metrics
            );

            let traced = run_named(w.name, &cfg, Some(&out)).expect("listed workload exists");
            assert_eq!(traced.failed, 0, "{}: traced run failed ops", w.name);
            assert_eq!(traced.metrics.len(), crate::metrics::PER_LAYER.len());
            let doc = std::fs::read_to_string(out.join(format!("trace-{}.json", w.name))).unwrap();
            worlds_obs::validate_json(&doc).expect("trace file is JSON");
        }
        let _ = std::fs::remove_dir_all(&out);
        assert!(run_named("no_such_workload", &cfg, None).is_none());
    }
}
