//! The Standard Workload Format (SWF) of the Parallel Workloads
//! Archive: one job per line, 18 whitespace-separated numeric fields,
//! `;`-prefixed comment/header lines. Reference:
//! Chapin et al., "Benchmarks and standards for the evaluation of
//! parallel job schedulers" (JSSPP 1999) and the archive's format page.

use crate::{Result, WorkloadError};

/// Job completion status (SWF field 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwfStatus {
    /// 0 — job failed.
    Failed,
    /// 1 — job completed successfully.
    Completed,
    /// 2 — partial-to-be-continued (rare).
    Partial,
    /// 3 — last partial segment (rare).
    LastPartial,
    /// 4 — job failed, may be continued (rare).
    FailedPartial,
    /// 5 — job was cancelled.
    Cancelled,
    /// −1 or anything else — unknown.
    Unknown,
}

impl SwfStatus {
    /// Decode SWF field 11.
    pub fn from_code(code: i64) -> Self {
        match code {
            0 => SwfStatus::Failed,
            1 => SwfStatus::Completed,
            2 => SwfStatus::Partial,
            3 => SwfStatus::LastPartial,
            4 => SwfStatus::FailedPartial,
            5 => SwfStatus::Cancelled,
            _ => SwfStatus::Unknown,
        }
    }

    /// Encode back to the SWF integer code.
    pub fn code(self) -> i64 {
        match self {
            SwfStatus::Failed => 0,
            SwfStatus::Completed => 1,
            SwfStatus::Partial => 2,
            SwfStatus::LastPartial => 3,
            SwfStatus::FailedPartial => 4,
            SwfStatus::Cancelled => 5,
            SwfStatus::Unknown => -1,
        }
    }
}

/// One SWF job record (all 18 standard fields). Missing values are the
/// SWF convention `-1`, kept as-is so a parsed file round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfJob {
    /// 1 — job number.
    pub job_id: i64,
    /// 2 — submit time (s since trace start).
    pub submit_time: f64,
    /// 3 — wait time (s).
    pub wait_time: f64,
    /// 4 — run time (s).
    pub run_time: f64,
    /// 5 — number of allocated processors.
    pub allocated_procs: i64,
    /// 6 — average CPU time used per processor (s).
    pub avg_cpu_time: f64,
    /// 7 — used memory (KB per processor).
    pub used_memory: f64,
    /// 8 — requested processors.
    pub requested_procs: i64,
    /// 9 — requested time (s).
    pub requested_time: f64,
    /// 10 — requested memory (KB per processor).
    pub requested_memory: f64,
    /// 11 — status.
    pub status: SwfStatus,
    /// 12 — user id.
    pub user_id: i64,
    /// 13 — group id.
    pub group_id: i64,
    /// 14 — executable (application) number.
    pub executable: i64,
    /// 15 — queue number.
    pub queue: i64,
    /// 16 — partition number.
    pub partition: i64,
    /// 17 — preceding job number.
    pub preceding_job: i64,
    /// 18 — think time from preceding job (s).
    pub think_time: f64,
}

impl SwfJob {
    /// The job's effective per-task runtime in seconds: average CPU
    /// time when recorded, falling back to wall-clock run time (the
    /// paper extracts "the average CPU time used in seconds" per task).
    pub fn task_runtime(&self) -> f64 {
        if self.avg_cpu_time > 0.0 {
            self.avg_cpu_time
        } else {
            self.run_time
        }
    }

    /// Serialize to one SWF data line.
    pub fn to_line(&self) -> String {
        fn num(v: f64) -> String {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        }
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.job_id,
            num(self.submit_time),
            num(self.wait_time),
            num(self.run_time),
            self.allocated_procs,
            num(self.avg_cpu_time),
            num(self.used_memory),
            self.requested_procs,
            num(self.requested_time),
            num(self.requested_memory),
            self.status.code(),
            self.user_id,
            self.group_id,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            num(self.think_time),
        )
    }
}

/// A parsed SWF trace: header directives plus job records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfTrace {
    /// Header directives (`; Key: value` lines), in file order.
    pub header: Vec<(String, String)>,
    /// Job records in file order.
    pub jobs: Vec<SwfJob>,
}

impl SwfTrace {
    /// Parse SWF text. Comment lines (starting with `;`) that look
    /// like `; Key: value` populate the header; other comments are
    /// skipped; blank lines are skipped; data lines must carry the 18
    /// standard fields.
    pub fn parse(text: &str) -> Result<SwfTrace> {
        let mut trace = SwfTrace::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix(';') {
                if let Some((key, value)) = comment.split_once(':') {
                    trace.header.push((key.trim().to_string(), value.trim().to_string()));
                }
                continue;
            }
            trace.jobs.push(parse_job_line(line, line_no)?);
        }
        Ok(trace)
    }

    /// Serialize the trace back to SWF text.
    pub fn to_swf(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.header {
            out.push_str("; ");
            out.push_str(k);
            out.push_str(": ");
            out.push_str(v);
            out.push('\n');
        }
        for job in &self.jobs {
            out.push_str(&job.to_line());
            out.push('\n');
        }
        out
    }

    /// Jobs that completed successfully (the paper's 21,915-of-43,778
    /// filter).
    pub fn completed(&self) -> impl Iterator<Item = &SwfJob> {
        self.jobs.iter().filter(|j| j.status == SwfStatus::Completed)
    }

    /// Completed jobs with runtime at least `min_runtime` seconds (the
    /// paper's "large jobs" run at least [`crate::LARGE_JOB_RUNTIME`]).
    pub fn large_completed(&self, min_runtime: f64) -> impl Iterator<Item = &SwfJob> + '_ {
        self.completed().filter(move |j| j.task_runtime() >= min_runtime)
    }
}

fn parse_job_line(line: &str, line_no: usize) -> Result<SwfJob> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 18 {
        return Err(WorkloadError::BadFieldCount { line: line_no, got: fields.len() });
    }
    let f = |i: usize| -> Result<f64> {
        fields[i].parse::<f64>().map_err(|_| WorkloadError::BadField {
            line: line_no,
            field: i,
            token: fields[i].to_string(),
        })
    };
    let int = |i: usize| -> Result<i64> {
        // tolerate float-formatted integers like "8.0"
        f(i).map(|v| v as i64)
    };
    Ok(SwfJob {
        job_id: int(0)?,
        submit_time: f(1)?,
        wait_time: f(2)?,
        run_time: f(3)?,
        allocated_procs: int(4)?,
        avg_cpu_time: f(5)?,
        used_memory: f(6)?,
        requested_procs: int(7)?,
        requested_time: f(8)?,
        requested_memory: f(9)?,
        status: SwfStatus::from_code(int(10)?),
        user_id: int(11)?,
        group_id: int(12)?,
        executable: int(13)?,
        queue: int(14)?,
        partition: int(15)?,
        preceding_job: int(16)?,
        think_time: f(17)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.1
; Computer: Atlas
; MaxJobs: 3
1 0 10 7300 64 7290 -1 64 8000 -1 1 3 1 -1 1 -1 -1 -1
2 5 0 100 8 95 -1 8 200 -1 0 4 1 -1 1 -1 -1 -1
3 9 2 9000 128 8950 -1 128 10000 -1 1 3 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_header_and_jobs() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        assert_eq!(t.header.len(), 3);
        assert_eq!(t.header[1], ("Computer".to_string(), "Atlas".to_string()));
        assert_eq!(t.jobs.len(), 3);
        assert_eq!(t.jobs[0].allocated_procs, 64);
        assert_eq!(t.jobs[0].status, SwfStatus::Completed);
        assert_eq!(t.jobs[1].status, SwfStatus::Failed);
        assert_eq!(t.jobs[2].run_time, 9000.0);
    }

    #[test]
    fn completed_filter() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let ids: Vec<i64> = t.completed().map(|j| j.job_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn large_completed_filter() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let ids: Vec<i64> = t.large_completed(7200.0).map(|j| j.job_id).collect();
        assert_eq!(ids, vec![1, 3]);
        let ids: Vec<i64> = t.large_completed(8000.0).map(|j| j.job_id).collect();
        assert_eq!(ids, vec![3]); // job 1's avg CPU time is 7290 < 8000
    }

    #[test]
    fn task_runtime_prefers_cpu_time() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        assert_eq!(t.jobs[0].task_runtime(), 7290.0);
        let mut j = t.jobs[0].clone();
        j.avg_cpu_time = -1.0;
        assert_eq!(j.task_runtime(), 7300.0);
    }

    #[test]
    fn round_trip_parse_write_parse() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let text = t.to_swf();
        let t2 = SwfTrace::parse(&text).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn wrong_field_count_rejected() {
        let err = SwfTrace::parse("1 2 3\n").unwrap_err();
        assert_eq!(err, WorkloadError::BadFieldCount { line: 1, got: 3 });
    }

    #[test]
    fn unparsable_field_rejected() {
        let bad = "1 0 10 xyz 64 7290 -1 64 8000 -1 1 3 1 -1 1 -1 -1 -1\n";
        let err = SwfTrace::parse(bad).unwrap_err();
        assert!(matches!(err, WorkloadError::BadField { line: 1, field: 3, .. }));
    }

    #[test]
    fn blank_lines_and_plain_comments_skipped() {
        let text = "\n; just a note without colon-value structure? no, it has none\n";
        let t = SwfTrace::parse(text).unwrap();
        assert!(t.jobs.is_empty());
    }

    #[test]
    fn status_codes_round_trip() {
        for code in [-1i64, 0, 1, 2, 3, 4, 5, 99] {
            let s = SwfStatus::from_code(code);
            if (0..=5).contains(&code) {
                assert_eq!(s.code(), code);
            } else {
                assert_eq!(s, SwfStatus::Unknown);
            }
        }
    }
}
