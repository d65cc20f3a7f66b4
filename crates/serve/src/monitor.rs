//! Windowed time-series monitoring of a running server.
//!
//! Overload behavior is a *trajectory* — a final stats snapshot shows
//! that a brownout happened, not when it tripped, how deep the queue
//! got, or how fast it recovered. The [`Monitor`] samples a server on a
//! fixed simulated-time grid and emits one [`MonitorSample`] per
//! elapsed window: queue depth and brownout rung at the sample instant,
//! plus window-delta completion/shed counts and per-tenant p99s. All on
//! [`crate::SimClock`] time, so the series is bit-for-bit reproducible.
//!
//! ```
//! use pvqnn::features::FeatureBackend;
//! use pvqnn::model::RegressorMode;
//! use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};
//! use serve::{demo_catalogue, Monitor, Server, ServerConfig};
//!
//! let points = demo_catalogue(8);
//! let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
//! let generator = FeatureGenerator::new(
//!     Strategy::observable_construction(4, 1),
//!     FeatureBackend::Exact,
//! );
//! let model = PostVarRegressor::fit(generator, &points, &y, RegressorMode::Ridge(1e-6));
//! let server = Server::new(ServerConfig::default());
//! server.deploy(model);
//!
//! // One sample per simulated millisecond, polled from the drive loop.
//! let mut monitor = Monitor::new(&server, 1_000_000);
//! let handle = server.submit(points[0].clone()).unwrap();
//! server.drain();
//! handle.wait().unwrap();
//! server.clock().advance_to_ns(2_500_000);
//! assert_eq!(monitor.poll(&server), 2, "boundaries at 1 ms and 2 ms passed");
//! assert_eq!(monitor.samples()[0].completed, 1);
//! ```

use crate::admission::{BrownoutLevel, TenantId};
use crate::server::Server;

/// One monitoring window's worth of observations.
#[derive(Clone, Debug)]
pub struct MonitorSample {
    /// Window end, simulated ns since the monitor started.
    pub t_ns: u64,
    /// Requests queued at the sample instant.
    pub queue_depth: usize,
    /// Brownout-ladder rung at the sample instant.
    pub level: BrownoutLevel,
    /// Requests completed during this window.
    pub completed: u64,
    /// Requests shed or dropped during this window (all causes).
    pub shed: u64,
    /// Cumulative feature-cache hit rate at the sample instant.
    pub cache_hit_rate: f64,
    /// Cumulative per-tenant p99 (simulated ms), ordered by tenant id.
    pub tenant_p99_ms: Vec<(TenantId, f64)>,
}

/// Samples a [`Server`] once per simulated-time window.
///
/// Call [`Monitor::poll`] from the drive loop as often as convenient;
/// it emits samples only when window boundaries pass (several at once
/// if a big batch jumped the clock across multiple windows), so the
/// series has one row per window regardless of poll cadence.
#[derive(Debug)]
pub struct Monitor {
    window_ns: u64,
    next_ns: u64,
    last_completed: u64,
    last_shed: u64,
    samples: Vec<MonitorSample>,
}

impl Monitor {
    /// A monitor emitting one sample per `window_ns` of simulated time,
    /// starting from the server clock's current position.
    pub fn new(server: &Server, window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        Monitor {
            window_ns,
            next_ns: server.clock().now_ns() + window_ns,
            last_completed: 0,
            last_shed: 0,
            samples: Vec::new(),
        }
    }

    /// Emits samples for every window boundary the server clock has
    /// passed since the last poll; returns how many were emitted.
    pub fn poll(&mut self, server: &Server) -> usize {
        let now = server.clock().now_ns();
        if now < self.next_ns {
            return 0;
        }
        let stats = server.stats();
        let shed_total = stats.rejected_total();
        let mut emitted = 0;
        while self.next_ns <= now {
            // Counter deltas land in the first window that observes
            // them; later boundaries crossed in the same poll are flat.
            let (completed, shed) = if emitted == 0 {
                (
                    stats.completed - self.last_completed,
                    shed_total - self.last_shed,
                )
            } else {
                (0, 0)
            };
            self.samples.push(MonitorSample {
                t_ns: self.next_ns,
                queue_depth: server.queue_depth(),
                level: server.brownout_level(),
                completed,
                shed,
                cache_hit_rate: stats.cache.hit_rate(),
                tenant_p99_ms: stats
                    .per_tenant
                    .iter()
                    .map(|t| (t.tenant, t.p99_ms))
                    .collect(),
            });
            self.next_ns += self.window_ns;
            emitted += 1;
        }
        self.last_completed = stats.completed;
        self.last_shed = shed_total;
        emitted
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[MonitorSample] {
        &self.samples
    }

    /// Consumes the monitor, returning the collected series.
    pub fn into_samples(self) -> Vec<MonitorSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use pvqnn::features::FeatureBackend;
    use pvqnn::model::RegressorMode;
    use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};

    fn model() -> PostVarRegressor {
        let data: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..16).map(|j| 0.2 + 0.1 * ((i + j) % 7) as f64).collect())
            .collect();
        let y: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6))
    }

    #[test]
    fn emits_one_sample_per_window() {
        let server = Server::new(ServerConfig::default());
        server.deploy(model());
        let mut mon = Monitor::new(&server, 1_000_000); // 1 ms windows
        assert_eq!(mon.poll(&server), 0, "no window elapsed yet");
        let x: Vec<f64> = (0..16).map(|j| 0.2 + 0.1 * (j % 7) as f64).collect();
        let h = server.submit(x).unwrap();
        server.drain();
        h.wait().unwrap();
        // One batch of 1 row / 1 miss ≈ 252 µs: not a window yet.
        assert_eq!(mon.poll(&server), 0);
        server.clock().advance_to_ns(3_500_000);
        let emitted = mon.poll(&server);
        assert_eq!(emitted, 3, "boundaries at 1, 2, 3 ms all passed");
        let s = mon.samples();
        assert_eq!(s[0].t_ns, 1_000_000);
        assert_eq!(s[0].completed, 1, "delta lands in the first window");
        assert_eq!(s[1].completed, 0);
        assert_eq!(s[2].t_ns, 3_000_000);
        assert!(s.iter().all(|w| w.level == BrownoutLevel::Normal));
    }
}
