//! Reusable fault injection, shared by the batch harness and the serve
//! chaos mode.
//!
//! PR 2 introduced fault injection as a one-off experiment driven by the
//! `BANDWALL_FAULT_INJECT` environment variable. This module hoists the
//! machinery into a small reusable vocabulary:
//!
//! * [`Fault`] — one concrete fault (panic, typed error, sleep) with a
//!   [`Fault::trigger`] that actually commits it;
//! * [`ChaosSpec`] — a parsed, probability-seeded chaos plan
//!   (`panic=P,worker=P,delay=P:MS`);
//! * [`Injector`] — a per-worker deterministic sampler over a
//!   [`ChaosSpec`]; workers own their injector outright, so chaos adds
//!   no shared mutable state to the serving path.
//!
//! The batch harness's injected experiment
//! ([`crate::experiments::fault_inject`]) and `bandwall serve --chaos`
//! both express their faults through this module, so a fault proven
//! containable in one place is the same fault contained in the other.

use crate::error::ExperimentError;
use bandwall_numerics::rng::Rng;
use std::any::Any;
use std::time::Duration;

/// One concrete fault to commit at a fault point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Unwind with a deliberate panic carrying this message.
    Panic(String),
    /// Return a typed [`ExperimentError::Numerical`] with this message.
    Error(String),
    /// Stall the caller for this long, then continue normally.
    Sleep(Duration),
}

impl Fault {
    /// Commits the fault: panics, sleeps, or returns the typed error.
    /// A [`Fault::Sleep`] returns `Ok(())` after the stall, so callers
    /// can write `fault.trigger()?` at any fault point.
    ///
    /// # Errors
    ///
    /// Returns the wrapped error for [`Fault::Error`].
    ///
    /// # Panics
    ///
    /// Panics (deliberately) for [`Fault::Panic`].
    pub fn trigger(&self) -> Result<(), ExperimentError> {
        match self {
            Fault::Panic(msg) => panic!("{}", msg.clone()),
            Fault::Error(msg) => Err(ExperimentError::Numerical(msg.clone())),
            Fault::Sleep(d) => {
                std::thread::sleep(*d);
                Ok(())
            }
        }
    }
}

/// Where in the serving path a fault may fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Inside a request handler, after the request has been read: a
    /// panic here must be contained to a well-formed error reply.
    Handler,
    /// Between requests on a worker thread: a panic here kills the
    /// worker and must be answered by a supervisor respawn.
    Worker,
}

/// A parsed chaos plan: independent probabilities per fault point plus
/// a handler delay, all driven by one seed.
///
/// The textual form accepted by [`ChaosSpec::parse`] is a comma list of
/// `panic=P` (handler panic probability), `worker=P` (worker-death
/// probability, sampled between requests), `delay=P:MS` (handler stall
/// probability and duration), and `seed=N`. Omitted fields keep the
/// defaults of [`ChaosSpec::standard`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Probability of a handler panic per request.
    pub handler_panic: f64,
    /// Probability of a worker death per handled request.
    pub worker_panic: f64,
    /// Probability of a handler stall per request.
    pub delay_probability: f64,
    /// Duration of an injected handler stall.
    pub delay: Duration,
    /// Seed from which every worker derives its own fault stream.
    pub seed: u64,
}

impl ChaosSpec {
    /// The default chaos mix used by `--chaos` without an argument:
    /// 1% handler panics, 0.1% worker deaths, 2% stalls of 2 ms.
    pub fn standard() -> Self {
        ChaosSpec {
            handler_panic: 0.01,
            worker_panic: 0.001,
            delay_probability: 0.02,
            delay: Duration::from_millis(2),
            seed: 0xC0FFEE,
        }
    }

    /// Parses a `panic=P,worker=P,delay=P:MS,seed=N` spec; missing
    /// fields keep [`ChaosSpec::standard`] values.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown fields, missing
    /// values, probabilities outside `[0, 1]`, or unparsable numbers.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = ChaosSpec::standard();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos field '{part}' is not key=value"))?;
            match key {
                "panic" => out.handler_panic = parse_probability(key, value)?,
                "worker" => out.worker_panic = parse_probability(key, value)?,
                "delay" => {
                    let (p, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay '{value}' is not P:MS"))?;
                    out.delay_probability = parse_probability(key, p)?;
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("bad delay duration '{ms}' (whole ms)"))?;
                    out.delay = Duration::from_millis(ms);
                }
                "seed" => {
                    out.seed = value
                        .parse()
                        .map_err(|_| format!("bad chaos seed '{value}'"))?;
                }
                other => return Err(format!("unknown chaos field '{other}'")),
            }
        }
        Ok(out)
    }
}

fn parse_probability(name: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("bad {name} probability '{value}'"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{name} probability {p} outside [0, 1]"))
    }
}

/// A deterministic per-worker fault sampler. Each worker builds its own
/// injector from the spec seed and its worker index
/// (`Rng::seed_from_stream`), so fault sequences are reproducible and
/// workers share no state.
#[derive(Debug)]
pub struct Injector {
    spec: ChaosSpec,
    rng: Rng,
}

impl Injector {
    /// Builds the injector for worker `stream` of `spec`.
    pub fn for_worker(spec: ChaosSpec, stream: u64) -> Self {
        Injector {
            spec,
            rng: Rng::seed_from_stream(spec.seed, stream),
        }
    }

    /// Samples the fault (if any) to commit at `point`. At a handler
    /// point a stall takes precedence over a panic so both paths get
    /// exercised even when both fire.
    pub fn sample(&mut self, point: FaultPoint) -> Option<Fault> {
        match point {
            FaultPoint::Handler => {
                if self.rng.gen_bool(self.spec.delay_probability) {
                    Some(Fault::Sleep(self.spec.delay))
                } else if self.rng.gen_bool(self.spec.handler_panic) {
                    Some(Fault::Panic("injected chaos: handler panic".into()))
                } else {
                    None
                }
            }
            FaultPoint::Worker => {
                if self.rng.gen_bool(self.spec.worker_panic) {
                    Some(Fault::Panic("injected chaos: worker death".into()))
                } else {
                    None
                }
            }
        }
    }
}

/// The message a caught panic carries: the payload of `panic!("...")`
/// (`&str`) or of a formatted `panic!` (`String`). `None` for any other
/// payload type; each caller supplies its own fallback text.
pub fn panic_message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let literal = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(&*literal), Some("literal"));
        let formatted = std::panic::catch_unwind(|| panic!("{} {}", "formatted", 7)).unwrap_err();
        assert_eq!(panic_message(&*formatted), Some("formatted 7"));
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*other), None);
    }

    #[test]
    fn trigger_commits_each_fault_kind() {
        assert!(Fault::Sleep(Duration::from_millis(0)).trigger().is_ok());
        assert!(matches!(
            Fault::Error("injected".into()).trigger(),
            Err(ExperimentError::Numerical(_))
        ));
        let caught = std::panic::catch_unwind(|| Fault::Panic("boom".into()).trigger());
        assert!(caught.is_err());
    }

    #[test]
    fn parse_overrides_only_named_fields() {
        let spec = ChaosSpec::parse("panic=0.5,delay=0.25:7").unwrap();
        assert_eq!(spec.handler_panic, 0.5);
        assert_eq!(spec.delay_probability, 0.25);
        assert_eq!(spec.delay, Duration::from_millis(7));
        assert_eq!(spec.worker_panic, ChaosSpec::standard().worker_panic);
        assert_eq!(spec.seed, ChaosSpec::standard().seed);
        assert_eq!(ChaosSpec::parse("").unwrap(), ChaosSpec::standard());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "panic",
            "panic=1.5",
            "panic=-0.1",
            "panic=x",
            "delay=0.5",
            "delay=0.5:soon",
            "seed=abc",
            "unknown=1",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let spec = ChaosSpec::parse("panic=0.3,worker=0.1,delay=0.2:1").unwrap();
        let sample = |stream: u64| {
            let mut inj = Injector::for_worker(spec, stream);
            (0..64)
                .map(|i| {
                    let point = if i % 2 == 0 {
                        FaultPoint::Handler
                    } else {
                        FaultPoint::Worker
                    };
                    inj.sample(point)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(0), sample(0));
        assert_ne!(sample(0), sample(1), "streams must differ");
    }

    #[test]
    fn zero_probabilities_never_fire() {
        let spec = ChaosSpec::parse("panic=0,worker=0,delay=0:1").unwrap();
        let mut inj = Injector::for_worker(spec, 0);
        for _ in 0..256 {
            assert_eq!(inj.sample(FaultPoint::Handler), None);
            assert_eq!(inj.sample(FaultPoint::Worker), None);
        }
    }

    #[test]
    fn certain_probabilities_always_fire() {
        let spec = ChaosSpec::parse("panic=1,worker=1,delay=0:1").unwrap();
        let mut inj = Injector::for_worker(spec, 3);
        assert!(matches!(
            inj.sample(FaultPoint::Handler),
            Some(Fault::Panic(_))
        ));
        assert!(matches!(
            inj.sample(FaultPoint::Worker),
            Some(Fault::Panic(_))
        ));
        let spec = ChaosSpec::parse("delay=1:4").unwrap();
        let mut inj = Injector::for_worker(spec, 3);
        assert_eq!(
            inj.sample(FaultPoint::Handler),
            Some(Fault::Sleep(Duration::from_millis(4)))
        );
    }
}
