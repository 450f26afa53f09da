//! The one-stop human-readable debug report behind
//! [`KgServer::debug_report`](crate::KgServer::debug_report).
//!
//! Everything the individual observability surfaces expose — metric
//! totals, per-site lock contention, pool utilization, the slow-query log,
//! per-job resource usage — rendered into a single plain-text document for
//! bug reports and terminals. Nothing here is machine-parsed; the stable
//! interfaces are the metric catalog and the typed accessors.

use std::fmt::Write as _;

use crate::{JobState, KgServer};

/// Nanoseconds rendered as fractional milliseconds.
fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

pub(crate) fn render(server: &KgServer) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== KGNet server debug report ==");

    // -- Lock contention, hottest sites first -------------------------------
    let mut sites = kgnet_sync::sites::all();
    sites.sort_by(|a, b| b.wait_nanos.cmp(&a.wait_nanos).then(b.acquires.cmp(&a.acquires)));
    let _ = writeln!(out, "\n-- lock sites (top {} by wait time) --", sites.len().min(10));
    for site in sites.iter().take(10) {
        let pct = if site.acquires == 0 {
            0.0
        } else {
            100.0 * site.contended as f64 / site.acquires as f64
        };
        let _ = writeln!(
            out,
            "{:<28} acquires {:>10}  contended {:>8} ({pct:>5.1}%)  waited {:>10.3} ms",
            site.name,
            site.acquires,
            site.contended,
            ms(site.wait_nanos),
        );
    }

    // -- Thread pools -------------------------------------------------------
    let global = rayon::global_pool_stats();
    let _ = writeln!(out, "\n-- thread pools --");
    let _ = writeln!(
        out,
        "global  : {} threads, {} jobs, {} steals, utilization {:.1}%, queue depth {}",
        global.n_threads,
        global.jobs_executed,
        global.steals,
        100.0 * global.utilization(),
        global.injector_depth + global.deque_depth,
    );
    let queue_obs = server.metrics.queue_obs();
    let _ = writeln!(
        out,
        "training: {} pool jobs, {} steals, {:.3} ms busy across finished jobs",
        queue_obs.train_pool_jobs.get(),
        queue_obs.train_pool_steals.get(),
        ms(queue_obs.train_pool_busy_nanos.get()),
    );

    // -- Slow queries -------------------------------------------------------
    let slow = server.slow_queries();
    let _ = writeln!(
        out,
        "\n-- slow queries ({} retained, threshold {:.1} ms) --",
        slow.len(),
        ms(server.slow_nanos),
    );
    for (i, q) in slow.iter().enumerate() {
        let first_line = q.text.lines().map(str::trim).find(|l| !l.is_empty()).unwrap_or("");
        let _ = writeln!(
            out,
            "[{i}] {:.3} ms, {} rows, {} triples scanned: {first_line}",
            ms(q.total_nanos),
            q.rows,
            q.triples_scanned,
        );
        for line in q.plan.lines() {
            let _ = writeln!(out, "      plan| {line}");
        }
        for line in q.profile.render().lines() {
            let _ = writeln!(out, "      span| {line}");
        }
    }

    // -- Jobs ---------------------------------------------------------------
    let jobs = server.jobs();
    let _ = writeln!(out, "\n-- training jobs ({} on record) --", jobs.len());
    for job in &jobs {
        let state = match &job.state {
            JobState::Queued => "queued".to_owned(),
            JobState::Running => "running".to_owned(),
            JobState::Done { model_uri } => format!("done ({model_uri})"),
            JobState::Failed { error } => format!("failed ({error})"),
            JobState::Cancelled => "cancelled".to_owned(),
        };
        let _ = writeln!(out, "#{} {:<20} {state}", job.id, job.name);
        if let Some(u) = &job.usage {
            let _ = writeln!(
                out,
                "      wall {:.3} ms, pool busy {:.3} ms on {} threads, {} epochs, \
                 {} triples sampled, peak mem +{} B, lock wait {:.3} ms",
                ms(u.wall_nanos),
                ms(u.busy_nanos),
                u.pool_threads,
                u.epochs,
                u.triples_sampled,
                u.peak_mem_delta_bytes,
                ms(u.lock_wait_nanos),
            );
        }
    }

    // -- Full metric dump ---------------------------------------------------
    let registry = server.metrics.registry();
    let _ = writeln!(out, "\n-- metrics ({} registered) --", registry.names().len());
    let _ = writeln!(out, "{}", server.metrics.render_json());
    out
}
