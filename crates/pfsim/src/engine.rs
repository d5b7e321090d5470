//! Discrete-event simulation of per-rank compress→write pipelines over
//! a shared, contended file system.
//!
//! Each rank executes its compression tasks **serially** (one core per
//! rank) and issues each compressed partition to an asynchronous write
//! stream that is also serial per rank (one background I/O thread, as
//! in HDF5's async VOL): write *i* starts once compression *i* and
//! write *i−1* have both finished. Concurrent writes from different
//! ranks share the file system under processor-sharing with the fair
//! rate of [`BandwidthModel::contended_rate`].
//!
//! This is the execution model behind the paper's Figure 4 timelines
//! and its Algorithm 1 cost recurrence `tw ← Pw(ℓ) + max(tc, tw)`; the
//! event engine generalizes that recurrence to a *shared* bandwidth
//! pool so congestion across ranks is captured.

use crate::bandwidth::BandwidthModel;

/// One compress→write unit (one field's partition on one rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineTask {
    /// Compression (compute) duration in seconds.
    pub compute: f64,
    /// Bytes to write once computed (0 = no write).
    pub write_bytes: f64,
}

/// A rank's ordered task list.
#[derive(Debug, Clone, Default)]
pub struct RankPipeline {
    /// Time at which the rank starts computing (barrier release).
    pub release: f64,
    /// Ordered tasks.
    pub tasks: Vec<PipelineTask>,
}

/// Completion record for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTimes {
    /// When compression of this task finished.
    pub compute_done: f64,
    /// When its write finished (equals `compute_done` if no write).
    pub write_done: f64,
}

/// Result of simulating a set of rank pipelines.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-rank, per-task completion times.
    pub tasks: Vec<Vec<TaskTimes>>,
    /// Per-rank finish time (last write done).
    pub rank_finish: Vec<f64>,
    /// Global makespan.
    pub makespan: f64,
}

impl SimOutcome {
    /// Time when the last compression anywhere finished.
    pub fn last_compute_done(&self) -> f64 {
        self.tasks
            .iter()
            .flatten()
            .map(|t| t.compute_done)
            .fold(0.0, f64::max)
    }
}

#[derive(Debug)]
struct ActiveWrite {
    rank: usize,
    task: usize,
    remaining: f64,
    total: f64,
    /// Remaining fixed latency to burn before bytes move.
    latency_left: f64,
}

/// Simulate the pipelines to completion.
pub fn simulate(ranks: &[RankPipeline], model: &BandwidthModel) -> SimOutcome {
    let n = ranks.len();
    let mut tasks: Vec<Vec<TaskTimes>> = ranks
        .iter()
        .map(|r| {
            vec![
                TaskTimes {
                    compute_done: 0.0,
                    write_done: 0.0
                };
                r.tasks.len()
            ]
        })
        .collect();

    // Per-rank compute cursor: next task index to compute and the time
    // the current compute finishes.
    let mut next_compute: Vec<usize> = vec![0; n];
    let mut compute_done_at: Vec<f64> = vec![f64::INFINITY; n];
    // Per-rank FIFO of computed-but-not-written task indices.
    let mut write_queue: Vec<std::collections::VecDeque<usize>> =
        vec![std::collections::VecDeque::new(); n];
    // Per-rank currently active write (serial I/O stream per rank).
    let mut writing: Vec<Option<usize>> = vec![None; n]; // index into `active`
    let mut active: Vec<ActiveWrite> = Vec::new();

    let mut now = 0.0f64;

    // Seed compute for each rank.
    for (r, rp) in ranks.iter().enumerate() {
        if rp.tasks.is_empty() {
            continue;
        }
        compute_done_at[r] = rp.release + rp.tasks[0].compute;
    }

    let rate_of = |w: &ActiveWrite, n_active: usize, model: &BandwidthModel| -> f64 {
        model.contended_rate(w.total, n_active).max(1.0)
    };

    loop {
        // Start queued writes on idle per-rank write streams. A
        // zero-byte write completes instantly and leaves the stream
        // idle for the next one.
        for r in 0..n {
            if writing[r].is_some() {
                continue;
            }
            while let Some(task) = write_queue[r].pop_front() {
                let bytes = ranks[r].tasks[task].write_bytes;
                if bytes <= 0.0 {
                    tasks[r][task].write_done = tasks[r][task].compute_done.max(now);
                    continue;
                }
                active.push(ActiveWrite {
                    rank: r,
                    task,
                    remaining: bytes,
                    total: bytes,
                    latency_left: model.latency,
                });
                writing[r] = Some(active.len() - 1);
                break;
            }
        }

        // Next compute completion.
        let (next_comp_rank, next_comp_t) = compute_done_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(r, &t)| (r, t))
            .unwrap_or((0, f64::INFINITY));

        // Next write completion under current fair-share rates.
        let n_active = active.len();
        let mut next_write_t = f64::INFINITY;
        let mut next_write_i = usize::MAX;
        for (i, w) in active.iter().enumerate() {
            let rate = rate_of(w, n_active, model);
            let t = now + w.latency_left + w.remaining / rate;
            if t < next_write_t {
                next_write_t = t;
                next_write_i = i;
            }
        }

        if next_comp_t.is_infinite() && next_write_t.is_infinite() {
            break;
        }

        // Advance active writes to the next event.
        let compute_first = next_comp_t <= next_write_t;
        let next_t = if compute_first {
            next_comp_t
        } else {
            next_write_t
        };
        let dt = next_t - now;
        for w in active.iter_mut() {
            let burn = w.latency_left.min(dt);
            w.latency_left -= burn;
            let move_t = dt - burn;
            let rate = rate_of(w, n_active, model);
            w.remaining -= rate * move_t;
        }
        now = next_t;

        if compute_first {
            // Complete the compute.
            let r = next_comp_rank;
            let t_idx = next_compute[r];
            tasks[r][t_idx].compute_done = now;
            write_queue[r].push_back(t_idx);
            next_compute[r] += 1;
            if next_compute[r] < ranks[r].tasks.len() {
                compute_done_at[r] = now + ranks[r].tasks[next_compute[r]].compute;
            } else {
                compute_done_at[r] = f64::INFINITY;
            }
        } else {
            // Complete the write.
            let w = active.swap_remove(next_write_i);
            tasks[w.rank][w.task].write_done = now;
            writing[w.rank] = None;
            // Fix the index of the swapped element.
            if next_write_i < active.len() {
                let moved_rank = active[next_write_i].rank;
                writing[moved_rank] = Some(next_write_i);
            }
        }
    }

    let rank_finish: Vec<f64> = tasks
        .iter()
        .enumerate()
        .map(|(r, ts)| {
            ts.iter()
                .map(|t| t.write_done)
                .fold(ranks[r].release, f64::max)
        })
        .collect();
    let makespan = rank_finish.iter().cloned().fold(0.0, f64::max);
    SimOutcome {
        tasks,
        rank_finish,
        makespan,
    }
}

/// Simulate a single round of fully concurrent writes (all `sizes`
/// arrive at t = 0), e.g. one collective-write round. Returns per-write
/// completion times and the round makespan.
pub fn simulate_concurrent_writes(sizes: &[f64], model: &BandwidthModel) -> (Vec<f64>, f64) {
    let ranks: Vec<RankPipeline> = sizes
        .iter()
        .map(|&s| RankPipeline {
            release: 0.0,
            tasks: vec![PipelineTask {
                compute: 0.0,
                write_bytes: s,
            }],
        })
        .collect();
    let out = simulate(&ranks, model);
    let times: Vec<f64> = out.tasks.iter().map(|t| t[0].write_done).collect();
    (times, out.makespan)
}

/// Time for a collective write of per-rank `sizes`: one synchronized
/// round per call — all ranks participate and wait for the slowest,
/// plus the model's collective overhead. Collective I/O moves bytes at
/// `collective_factor` of the independent-path bandwidth.
pub fn collective_write_time(sizes: &[f64], model: &BandwidthModel) -> f64 {
    let derated = BandwidthModel {
        per_proc_peak: model.per_proc_peak * model.collective_factor,
        aggregate_cap: model.aggregate_cap * model.collective_factor,
        ..*model
    };
    let (_, makespan) = simulate_concurrent_writes(sizes, &derated);
    model.collective_overhead + makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> BandwidthModel {
        BandwidthModel::tiny_for_tests()
    }

    #[test]
    fn single_rank_single_task() {
        let ranks = vec![RankPipeline {
            release: 0.0,
            tasks: vec![PipelineTask {
                compute: 1.0,
                write_bytes: 50e6,
            }],
        }];
        let out = simulate(&ranks, &m());
        let t = out.tasks[0][0];
        assert!((t.compute_done - 1.0).abs() < 1e-9);
        let expect = 1.0 + m().solo_write_time(50e6);
        assert!(
            (t.write_done - expect).abs() < 1e-3,
            "{} vs {}",
            t.write_done,
            expect
        );
    }

    #[test]
    fn pipeline_overlaps_compute_and_write() {
        // Two tasks: while task 0 writes, task 1 computes.
        let ranks = vec![RankPipeline {
            release: 0.0,
            tasks: vec![
                PipelineTask {
                    compute: 1.0,
                    write_bytes: 100e6,
                },
                PipelineTask {
                    compute: 1.0,
                    write_bytes: 100e6,
                },
            ],
        }];
        let out = simulate(&ranks, &m());
        let serial = 2.0 * (1.0 + m().solo_write_time(100e6));
        assert!(
            out.makespan < serial - 0.5,
            "makespan {} serial {}",
            out.makespan,
            serial
        );
        // Write 1 cannot start before write 0 finished AND compute 1 done.
        let t0 = out.tasks[0][0];
        let t1 = out.tasks[0][1];
        assert!(t1.write_done > t0.write_done);
        assert!(t1.compute_done >= t0.compute_done + 1.0 - 1e-9);
    }

    #[test]
    fn contention_slows_everyone() {
        let solo = simulate(
            &[RankPipeline {
                release: 0.0,
                tasks: vec![PipelineTask {
                    compute: 0.0,
                    write_bytes: 200e6,
                }],
            }],
            &m(),
        )
        .makespan;
        let eight: Vec<RankPipeline> = (0..8)
            .map(|_| RankPipeline {
                release: 0.0,
                tasks: vec![PipelineTask {
                    compute: 0.0,
                    write_bytes: 200e6,
                }],
            })
            .collect();
        let contended = simulate(&eight, &m()).makespan;
        // cap = 400 MB/s, 8 × 200 MB at fair share 50 MB/s each ≈ 4 s
        assert!(contended > solo * 1.5, "contended {contended} solo {solo}");
    }

    #[test]
    fn release_time_delays_start() {
        let ranks = vec![RankPipeline {
            release: 5.0,
            tasks: vec![PipelineTask {
                compute: 1.0,
                write_bytes: 0.0,
            }],
        }];
        let out = simulate(&ranks, &m());
        assert!((out.tasks[0][0].compute_done - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_writes_complete() {
        let ranks = vec![RankPipeline {
            release: 0.0,
            tasks: vec![
                PipelineTask {
                    compute: 0.5,
                    write_bytes: 0.0,
                },
                PipelineTask {
                    compute: 0.5,
                    write_bytes: 1e6,
                },
            ],
        }];
        let out = simulate(&ranks, &m());
        assert!(out.makespan > 1.0);
        assert!(out.tasks[0][0].write_done >= 0.5);
    }

    #[test]
    fn empty_pipelines() {
        let out = simulate(&[RankPipeline::default()], &m());
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn concurrent_round_fair() {
        let (times, makespan) = simulate_concurrent_writes(&[100e6, 100e6, 100e6, 100e6], &m());
        // 400 MB over a 400 MB/s cap ≈ 1 s.
        assert!((makespan - 1.0).abs() < 0.2, "makespan {makespan}");
        for t in times {
            assert!((t - makespan).abs() < 0.2);
        }
    }

    #[test]
    fn collective_adds_overhead() {
        let sizes = vec![10e6; 4];
        let c = collective_write_time(&sizes, &m());
        let (_, ms) = simulate_concurrent_writes(&sizes, &m());
        assert!(c > ms);
    }

    #[test]
    fn makespan_is_max_rank_finish() {
        let ranks: Vec<RankPipeline> = (0..4)
            .map(|r| RankPipeline {
                release: 0.0,
                tasks: vec![PipelineTask {
                    compute: r as f64,
                    write_bytes: 5e6,
                }],
            })
            .collect();
        let out = simulate(&ranks, &m());
        let max = out.rank_finish.iter().cloned().fold(0.0, f64::max);
        assert_eq!(out.makespan, max);
    }
}
