//! The environment a run was measured in, recorded beside its numbers.

use crate::harness::{nofile_limit, nproc};

pub struct Env {
    nproc: usize,
    kernel: String,
    nofile: u64,
    loadavg_1m: f64,
}

fn first_word(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Env {
    pub fn capture() -> Env {
        Env {
            nproc: nproc(),
            kernel: first_word("/proc/sys/kernel/osrelease"),
            nofile: nofile_limit(),
            loadavg_1m: first_word("/proc/loadavg").parse().unwrap_or(0.0),
        }
    }

    /// Someone else's load on a 2-core box lands in every metric: say so,
    /// but let the run go on.
    pub fn warn_if_loaded(&self) {
        if self.loadavg_1m > 0.5 * self.nproc as f64 {
            eprintln!(
                "warning: 1-minute load average {} exceeds half of {} processors; \
                 expect noisy numbers",
                self.loadavg_1m, self.nproc
            );
        }
    }

    pub fn to_json(&self, commit: &str) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": {}, \"ulimit_n\": {}, \
             \"loadavg_1m_at_start\": {}, \"git_commit\": {}}}",
            self.nproc,
            crate::json_string(&self.kernel),
            self.nofile,
            self.loadavg_1m,
            crate::json_string(commit)
        )
    }
}
