//! The load generator: one thread and one keep-alive connection per
//! plan column, sending each job when it is due (open loop) and timing
//! every request from the moment it was due.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use yask_index::Corpus;
use yask_query::ScoreParams;
use yask_server::Json;

use crate::client::Conn;
use crate::cpu;
use crate::workload::{Class, Plan, Step};

/// One request as the generator saw it. Times are seconds from the
/// phase start.
pub struct Record {
    pub step: Step,
    pub job: u32,
    /// Position of the request in its job.
    pub seq: usize,
    /// When the request was due: the job's scheduled time, or the
    /// completion of the job's previous request.
    pub sched: f64,
    /// When the connection was free to send it.
    pub free: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status; 0 for a transport error or a request never sent
    /// because an earlier request of its job failed.
    pub status: u16,
    pub body: Vec<u8>,
}

impl Record {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// How late the generator sent, beyond waiting for its connection.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.free).max(0.0) * 1e3
    }

    /// The id the traced run tags the request with.
    pub fn trace_id(&self) -> u64 {
        request_id(self.job, self.seq)
    }
}

pub fn request_id(job: u32, seq: usize) -> u64 {
    job as u64 * 4 + seq as u64
}

/// Everything one phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    /// Connections reopened during the phase.
    pub reconnects: u64,
    /// From the phase start to the last completion.
    pub seconds: f64,
    /// CPU seconds this process spent during the phase outside the
    /// generator threads: the service's own work.
    pub service_cpu_s: f64,
}

impl Phase {
    pub fn of_class(&self, class: Class) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.step.class() == class)
    }
}

/// Runs a plan against the server at `addr`. With `traced`, requests
/// are tagged for the handler wrapper and ask for their span trees.
pub fn run(
    addr: SocketAddr,
    plan: &Plan,
    corpus: &Corpus,
    params: &ScoreParams,
    traced: bool,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let secs = move || {
        Instant::now()
            .saturating_duration_since(start)
            .as_secs_f64()
    };
    let cpu_before = cpu::process_s();
    let columns: Vec<(Vec<Record>, u64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|jobs| {
                s.spawn(move || {
                    let cpu_start = cpu::thread_s();
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::with_capacity(jobs.len() * 3);
                    let mut free_at = 0.0f64;
                    for job in jobs {
                        let wait = job.at - secs();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let mut session = 0u64;
                        let mut failed = false;
                        let mut due = job.at;
                        for (seq, step) in job.steps.iter().enumerate() {
                            let free = due.max(free_at);
                            let mut rec = Record {
                                step: step.clone(),
                                job: job.index,
                                seq,
                                sched: due,
                                free,
                                sent: free,
                                done: free,
                                status: 0,
                                body: Vec::new(),
                            };
                            if !failed {
                                let id = traced.then(|| request_id(job.index, seq));
                                let request = step.render(corpus, params, session, id);
                                rec.sent = secs();
                                let reply = conn.call(&request);
                                rec.done = secs();
                                free_at = rec.done;
                                due = rec.done;
                                if let Ok(reply) = reply {
                                    rec.status = reply.status;
                                    rec.body = reply.body;
                                }
                                failed = !rec.ok();
                                if let (Step::Query(_), false) = (step, failed) {
                                    session = session_of(&rec.body).unwrap_or(0);
                                }
                            }
                            out.push(rec);
                        }
                    }
                    (out, conn.reconnects, cpu::thread_s() - cpu_start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut service_cpu_s = cpu::process_s() - cpu_before;
    let mut records = Vec::new();
    let mut reconnects = 0;
    for (column, r, generator_cpu_s) in columns {
        records.extend(column);
        reconnects += r;
        service_cpu_s -= generator_cpu_s;
    }
    records.sort_by(|a, b| a.job.cmp(&b.job).then(a.seq.cmp(&b.seq)));
    let seconds = records.iter().map(|r| r.done).fold(0.0, f64::max);
    Phase {
        records,
        reconnects,
        seconds,
        service_cpu_s: service_cpu_s.max(0.0),
    }
}

/// The session id in a `/query` response body.
pub fn session_of(body: &[u8]) -> Option<u64> {
    let body = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    body.get("session")?.as_f64().map(|id| id as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_id_is_read_from_the_query_response() {
        assert_eq!(session_of(br#"{"session":42,"degraded":false}"#), Some(42));
        assert_eq!(session_of(br#"{"error":"x"}"#), None);
    }
}
