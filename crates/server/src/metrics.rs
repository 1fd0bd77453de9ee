//! The server's pre-registered telemetry handles.
//!
//! Everything the serving path observes is resolved **once**, here, at
//! first touch: route × status counter and per-route latency tables are
//! materialised up front so a request on the hot path never takes the
//! registry or family lock — recording is a few relaxed atomic ops on
//! handles this struct already holds. Per-document counters are the one
//! dynamic family ([`ServerMetrics::doc_queries`]); a [`crate::Doc`]
//! resolves its handle at registration time and keeps it.

use std::sync::{Arc, OnceLock};
use usi_obs::{
    default_latency_buckets, exponential_buckets, Counter, CounterVec, Gauge, Histogram,
};

/// Route labels for HTTP series, a closed set so series cardinality is
/// bounded no matter what paths clients probe. Parameterised routes use
/// the template (`/v1/docs/{id}/stats`), not the concrete id.
const ROUTES: &[&str] = &[
    "/healthz",
    "/v1/docs",
    "/v1/docs/{id}/stats",
    "/v1/docs/{id}/append",
    "/v1/docs/{id}/reload",
    "/v1/query",
    "/metrics",
    "/v1/trace",
    "/v1/trace/{trace_id}",
    "/debug/requests",
    "other",
];

/// Status labels actually produced by the router (plus the
/// over-capacity 503) and a catch-all.
const STATUSES: &[&str] = &["200", "400", "404", "405", "409", "413", "500", "503", "other"];

/// Every handle the serving path records into.
pub(crate) struct ServerMetrics {
    /// `usi_http_requests_total{route,status}`, indexed `[route][status]`.
    requests: Vec<Vec<Arc<Counter>>>,
    /// `usi_http_request_seconds{route}`, indexed `[route]`.
    request_seconds: Vec<Arc<Histogram>>,
    pub connections_open: Arc<Gauge>,
    pub connections_idle: Arc<Gauge>,
    pub requests_in_flight: Arc<Gauge>,
    pub requests_per_connection: Arc<Histogram>,
    pub slow_requests_total: Arc<Counter>,
    /// `epoll_wait` returns across every worker (readiness, timer ticks
    /// and the shutdown wake all count — the loop's duty cycle).
    pub reactor_wakeups_total: Arc<Counter>,
    /// `usi_pool_jobs_in_flight` — workers serving a connection right
    /// now; pinned at `--workers`, every worker is busy.
    pub pool_in_flight: Arc<Gauge>,
    /// `usi_doc_queries_total{doc}` — resolved per [`crate::Doc`] at
    /// registration, not per query.
    pub doc_queries: CounterVec,
    pub query_batch_size: Arc<Histogram>,
    pub fan_out_width: Arc<Histogram>,
    /// `usi_catalog_reloads_total` — successful live `.usix` reloads.
    pub catalog_reloads_total: Arc<Counter>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = usi_obs::global();
        let requests_vec = registry.counter_vec(
            "usi_http_requests_total",
            "HTTP requests served, by route template and status code",
            &["route", "status"],
        );
        let requests = ROUTES
            .iter()
            .map(|&route| {
                STATUSES.iter().map(|&status| requests_vec.with(&[route, status])).collect()
            })
            .collect();
        let seconds_vec = registry.histogram_vec(
            "usi_http_request_seconds",
            "Wall-clock time from parsed request to written response",
            &["route"],
            default_latency_buckets(),
        );
        let request_seconds = ROUTES.iter().map(|&route| seconds_vec.with(&[route])).collect();
        Self {
            requests,
            request_seconds,
            connections_open: registry
                .gauge("usi_http_connections_open", "Accepted connections currently being served"),
            connections_idle: registry.gauge(
                "usi_http_connections_idle",
                "Open keep-alive connections waiting for their next request",
            ),
            requests_in_flight: registry
                .gauge("usi_http_requests_in_flight", "Requests currently being routed"),
            requests_per_connection: registry.histogram(
                "usi_http_requests_per_connection",
                "Requests served on one connection before it closed",
                exponential_buckets(1.0, 2.0, 11),
            ),
            slow_requests_total: registry.counter(
                "usi_http_slow_requests_total",
                "Requests slower than the configured --slow-query-ms threshold",
            ),
            reactor_wakeups_total: registry.counter(
                "usi_reactor_wakeups_total",
                "Times a worker's epoll_wait returned (events, timers, wakes)",
            ),
            pool_in_flight: registry
                .gauge("usi_pool_jobs_in_flight", "Workers currently serving a connection"),
            doc_queries: registry.counter_vec(
                "usi_doc_queries_total",
                "Patterns answered, by document",
                &["doc"],
            ),
            query_batch_size: registry.histogram(
                "usi_query_batch_size",
                "Patterns per query batch",
                exponential_buckets(1.0, 2.0, 13),
            ),
            fan_out_width: registry.histogram(
                "usi_fan_out_width",
                "Documents touched by one fan-out query",
                exponential_buckets(1.0, 2.0, 11),
            ),
            catalog_reloads_total: registry
                .counter("usi_catalog_reloads_total", "Successful live reloads of .usix documents"),
        }
    }

    /// The closed-set index of a route label (`other` maps last).
    fn route_index(route: &str) -> usize {
        ROUTES.iter().position(|&r| r == route).unwrap_or(ROUTES.len() - 1)
    }

    /// Records one finished request: the `{route,status}` counter and
    /// the per-route latency histogram, both via pre-resolved handles.
    pub fn observe_request(&self, route: &str, status: u16, seconds: f64) {
        let ri = Self::route_index(route);
        let status_label = match status {
            200 => 0,
            400 => 1,
            404 => 2,
            405 => 3,
            409 => 4,
            413 => 5,
            500 => 6,
            503 => 7,
            _ => 8,
        };
        self.requests[ri][status_label].inc();
        self.request_seconds[ri].observe(seconds);
    }
}

/// The process-global handle set, registered on first touch.
pub(crate) fn server() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(ServerMetrics::new)
}

/// Normalises a request to its bounded route label: known paths map to
/// their template, everything else to `other`.
pub(crate) fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" | "/v1/docs" | "/v1/query" | "/metrics" | "/v1/trace" | "/debug/requests" => {
            ROUTES[ServerMetrics::route_index(path)]
        }
        _ if crate::http::trace_sub_id(path).is_some() => "/v1/trace/{trace_id}",
        _ if crate::http::doc_sub_route(path, "stats") => "/v1/docs/{id}/stats",
        _ if crate::http::doc_sub_route(path, "append") => "/v1/docs/{id}/append",
        _ if crate::http::doc_sub_route(path, "reload") => "/v1/docs/{id}/reload",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_a_closed_set() {
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/v1/docs/abc/stats"), "/v1/docs/{id}/stats");
        assert_eq!(route_label("/v1/docs/abc/append"), "/v1/docs/{id}/append");
        assert_eq!(route_label("/v1/docs/abc/reload"), "/v1/docs/{id}/reload");
        assert_eq!(route_label("/v1/docs/a/b/stats"), "other");
        assert_eq!(route_label("/nope"), "other");
        assert_eq!(route_label("/v1/trace/00ff00ff00ff00ff"), "/v1/trace/{trace_id}");
        assert_eq!(route_label("/v1/trace/"), "other");
        assert_eq!(route_label("/debug/requests"), "/debug/requests");
        for path in ["/healthz", "/v1/docs/x/stats", "/weird", "/v1/trace/1234", "/debug/requests"]
        {
            assert!(ROUTES.contains(&route_label(path)));
        }
    }

    #[test]
    fn observe_request_accepts_unknown_statuses() {
        let m = server();
        m.observe_request("other", 999, 0.001);
        m.observe_request("/healthz", 200, 0.000_01);
        // handles resolve and record without panicking; exact values
        // are asserted end-to-end via /metrics in the e2e tests
    }
}
