//! The scheduling daemon.
//!
//! ```text
//! served [tcp:HOST:PORT | unix:/PATH] [--workers N] [--queue N]
//!        [--conns N] [--max-bytes N] [--deadline-ms N]
//!        [--max-deadline-ms N] [--cache N] [--pipeline]
//!        [--trace FILE]
//! ```
//!
//! Listens until SIGTERM/SIGINT, then drains gracefully: stops
//! accepting, lets running requests finish under their deadlines,
//! answers queued ones bound-only, prints final counters and exits 0.
//!
//! Log verbosity is controlled by `HLS_LOG`
//! (`error|warn|info|debug|trace|off`, default `info`). `--trace
//! FILE` turns the span recorder on for the daemon's lifetime and
//! writes a Chrome `trace_event` timeline to FILE on shutdown (open
//! it in `chrome://tracing` or Perfetto).

use hls_obs::{obs_error, obs_info};
use hls_serve::{BindAddr, ServeConfig, Server};
use std::time::Duration;

/// SIGTERM/SIGINT latch. `signal(2)` is in every libc the std binary
/// already links; declaring it directly avoids a crate dependency.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stopped() -> bool {
        false
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: served [tcp:HOST:PORT | unix:/PATH] [--workers N] [--queue N] [--conns N]\n\
         \x20             [--max-bytes N] [--deadline-ms N] [--max-deadline-ms N] [--cache N]\n\
         \x20             [--pipeline] [--trace FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> (BindAddr, ServeConfig, Option<std::path::PathBuf>) {
    let mut addr = BindAddr::Tcp("127.0.0.1:7411".into());
    let mut cfg = ServeConfig::default();
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        fn numeric(args: &mut dyn Iterator<Item = String>) -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        }
        match arg.as_str() {
            "--workers" => cfg.workers = numeric(&mut args) as usize,
            "--queue" => cfg.queue_capacity = numeric(&mut args) as usize,
            "--conns" => cfg.max_connections = numeric(&mut args) as usize,
            "--max-bytes" => cfg.max_request_bytes = numeric(&mut args) as usize,
            "--deadline-ms" => cfg.default_deadline = Duration::from_millis(numeric(&mut args)),
            "--max-deadline-ms" => cfg.max_deadline = Duration::from_millis(numeric(&mut args)),
            "--cache" => cfg.cache_capacity = numeric(&mut args) as usize,
            "--pipeline" => {
                cfg.flow.pipeline = Some(hls_search::PipelineConfig::default());
            }
            "--trace" => {
                trace_out = Some(std::path::PathBuf::from(
                    args.next().unwrap_or_else(|| usage()),
                ));
            }
            "--help" | "-h" => usage(),
            other => match BindAddr::parse(other) {
                Ok(a) => addr = a,
                Err(e) => {
                    obs_error!("served", "{e}");
                    usage()
                }
            },
        }
    }
    (addr, cfg, trace_out)
}

fn main() {
    let (addr, cfg, trace_out) = parse_args();
    sig::install();
    if trace_out.is_some() {
        hls_obs::set_enabled(true);
    }
    let server = match Server::start(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            obs_error!("served", "bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    obs_info!("served", "listening on {}", server.addr());

    while !sig::stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }

    obs_info!("served", "draining");
    let stats = server.shutdown(Duration::from_secs(10));
    let counters: Vec<String> = stats
        .counters
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    obs_info!("served", "done — {}", counters.join(" "));
    if let Some(path) = trace_out {
        let json = hls_obs::export::chrome_trace_json(&hls_obs::recorder::snapshot_events());
        match std::fs::write(&path, json) {
            Ok(()) => obs_info!("served", "trace written to {}", path.display()),
            Err(e) => obs_error!("served", "writing trace {}: {e}", path.display()),
        }
    }
}
