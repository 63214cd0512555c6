//! Load generation against a live `adq_infer::serve::Server`: the frame
//! codec for pipelined requests, seeded arrival schedules, the closed-
//! and open-loop clients, and the capacity bisection.
//!
//! `adq_infer::serve::Client` keeps one request in flight, so the open
//! loop encodes frames itself from the wire format documented in
//! `adq_infer::serve`: a `u32` LE length prefix, then
//! `[kind u8][id u64 LE][n u32 LE][n × f32 LE]` for requests and
//! `[status u8][id u64 LE][n u32 LE][body]` for responses.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use adq::infer::serve::{Client, Reply};

/// Request kind byte for inference.
const KIND_INFER: u8 = 1;
/// Response status byte for logits.
const STATUS_OK: u8 = 0;
/// Response status byte for an admission-control shed.
const STATUS_SHED: u8 = 2;
/// Largest response payload accepted (the server's own frame cap).
const MAX_FRAME: usize = 16 << 20;
/// How long the receiver waits for stragglers after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// SplitMix64: a tiny seeded generator, enough for arrival gaps and image
/// choice, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never zero, so `ln` stays finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded input set: `images[i]` is one flattened image and
/// `expected[i]` the logits `CompiledVgg::run` gives it alone. A response
/// is correct only when it equals the expectation bit for bit.
pub struct ImagePool {
    pub images: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
}

impl ImagePool {
    /// Whether `logits` are bit-identical to image `index`'s expectation.
    pub fn matches(&self, index: usize, logits: &[f32]) -> bool {
        let want = &self.expected[index];
        want.len() == logits.len()
            && want
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Encodes one inference request as a complete frame.
pub fn encode_infer(id: u64, input: &[f32]) -> Vec<u8> {
    let payload_len = 13 + 4 * input.len();
    let mut frame = Vec::with_capacity(4 + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
    frame.push(KIND_INFER);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&(input.len() as u32).to_le_bytes());
    for v in input {
        frame.extend_from_slice(&v.to_le_bytes());
    }
    frame
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Logits {
        id: u64,
        logits: Vec<f32>,
    },
    Shed {
        id: u64,
    },
    /// Any other status: a refusal, with a UTF-8 reason the benchmark
    /// only counts.
    Error {
        id: u64,
    },
}

impl Response {
    pub fn id(&self) -> u64 {
        match self {
            Response::Logits { id, .. } | Response::Shed { id } | Response::Error { id } => *id,
        }
    }
}

/// Checks a response frame's length prefix.
fn payload_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if (13..=MAX_FRAME).contains(&len) {
        Ok(len)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response frame of {len} bytes"),
        ))
    }
}

/// Reads one response frame from a blocking stream; `Ok(None)` on a
/// clean end of stream.
#[cfg(test)]
pub fn read_response(reader: &mut impl Read) -> io::Result<Option<Response>> {
    let mut prefix = [0u8; 4];
    match reader.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; payload_len(prefix)?];
    reader.read_exact(&mut payload)?;
    Ok(Some(parse_response(&payload)))
}

/// Pops the next complete response frame off the front of `buf`.
fn pop_response(buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = payload_len(*prefix)?;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let response = parse_response(&buf[4..4 + len]);
    buf.drain(..4 + len);
    Ok(Some(response))
}

/// Decodes a response payload of at least 13 bytes.
fn parse_response(payload: &[u8]) -> Response {
    let id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let n = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
    let body = &payload[13..];
    match payload[0] {
        STATUS_OK if body.len() == 4 * n => Response::Logits {
            id,
            logits: body
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        },
        STATUS_SHED => Response::Shed { id },
        _ => Response::Error { id },
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `window`; the same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        at += -rng.unit().ln() / rate;
        if at >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Request outcomes of one load phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    pub sent: u64,
    pub ok: u64,
    /// Logits that differ from running the image alone.
    pub wrong: u64,
    pub errors: u64,
    pub shed: u64,
    /// Sent but never answered.
    pub unanswered: u64,
    /// Latency of every answered request, in nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Open loop only: how late each request left, in nanoseconds.
    pub late_ns: Vec<f64>,
    /// Start of sending to the last response.
    pub elapsed: Duration,
    /// Open loop only: the schedule's own rate (arrivals / window).
    pub offered_rps: f64,
}

impl PhaseResult {
    /// Requests that count against correctness.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.shed + self.unanswered
    }

    /// Completed requests per second over the phase.
    pub fn achieved_rps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One closed-loop client through the public blocking `Client`: each
/// request leaves only after the previous answer, for `window`.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &ImagePool,
    seed: u64,
    window: Duration,
) -> io::Result<PhaseResult> {
    let mut client = Client::connect(addr)?;
    let mut rng = SplitMix::new(seed);
    let mut out = PhaseResult::default();
    let started = Instant::now();
    while started.elapsed() < window {
        let index = rng.below(pool.images.len());
        let sent = Instant::now();
        let reply = client.infer(&pool.images[index])?;
        out.latencies_ns.push(sent.elapsed().as_nanos() as f64);
        out.sent += 1;
        match reply {
            Reply::Logits(logits) if pool.matches(index, &logits) => out.ok += 1,
            Reply::Logits(_) => out.wrong += 1,
            Reply::Shed(_) => out.shed += 1,
            Reply::Refused(_) => out.errors += 1,
        }
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

/// Open loop on one pipelined connection: a sender thread writes each
/// request when its arrival is due, a receiver thread matches answers by
/// id. Latency runs from when a request was due, so a stalled sender
/// charges its lateness to the requests behind it.
pub fn open_loop(
    addr: SocketAddr,
    pool: &ImagePool,
    seed: u64,
    schedule: &[Duration],
) -> io::Result<PhaseResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut rng = SplitMix::new(seed);
    let choice: Vec<usize> = schedule
        .iter()
        .map(|_| rng.below(pool.images.len()))
        .collect();
    let sent = AtomicUsize::new(0);
    let sending_done = AtomicBool::new(false);
    let started = Instant::now();

    let (late_ns, send_error, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> (Vec<f64>, Option<io::Error>) {
            let mut writer = &stream;
            let mut late = Vec::with_capacity(schedule.len());
            let mut error = None;
            for (id, due) in schedule.iter().enumerate() {
                let now = started.elapsed();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                late.push(started.elapsed().saturating_sub(*due).as_nanos() as f64);
                let frame = encode_infer(id as u64, &pool.images[choice[id]]);
                if let Err(e) = writer.write_all(&frame) {
                    error = Some(e);
                    break;
                }
                sent.store(id + 1, Ordering::SeqCst);
            }
            sending_done.store(true, Ordering::SeqCst);
            (late, error)
        });
        let received = receive(&mut reader, started, schedule.len(), &sent, &sending_done);
        let (late, error) = sender.join().expect("open-loop sender panicked");
        (late, error, received)
    });
    if let Some(e) = send_error {
        return Err(e);
    }
    let received = received?;

    let sent = sent.load(Ordering::SeqCst);
    let mut out = PhaseResult {
        sent: sent as u64,
        late_ns,
        offered_rps: schedule.len() as f64
            / schedule.last().map_or(1e-9, |d| d.as_secs_f64().max(1e-9)),
        ..PhaseResult::default()
    };
    let mut answered = vec![false; sent];
    let mut last = Duration::ZERO;
    for (response, at) in received {
        let id = response.id() as usize;
        if id >= sent || answered[id] {
            out.errors += 1;
            continue;
        }
        answered[id] = true;
        last = last.max(at);
        out.latencies_ns
            .push(at.saturating_sub(schedule[id]).as_nanos() as f64);
        match response {
            Response::Logits { logits, .. } if pool.matches(choice[id], &logits) => out.ok += 1,
            Response::Logits { .. } => out.wrong += 1,
            Response::Shed { .. } => out.shed += 1,
            Response::Error { .. } => out.errors += 1,
        }
    }
    out.unanswered = answered.iter().filter(|a| !**a).count() as u64;
    out.elapsed = last;
    Ok(out)
}

/// Receiver half of [`open_loop`]: every response with its arrival time
/// since `started`, until all `expected` are in or the server has been
/// silent for [`DRAIN_TIMEOUT`] after the sender finished.
fn receive(
    reader: &mut TcpStream,
    started: Instant,
    expected: usize,
    sent: &AtomicUsize,
    sending_done: &AtomicBool,
) -> io::Result<Vec<(Response, Duration)>> {
    let mut got = Vec::with_capacity(expected);
    let mut quiet_since: Option<Instant> = None;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    while got.len() < expected {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = started.elapsed();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(response) = pop_response(&mut buf)? {
                    got.push((response, at));
                }
                quiet_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if sending_done.load(Ordering::SeqCst) {
                    if got.len() >= sent.load(Ordering::SeqCst) {
                        break;
                    }
                    let since = *quiet_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN_TIMEOUT {
                        break;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// What one capacity probe at an offered rate found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeVerdict {
    pub meets: bool,
    /// The server answered everything and kept up with the offered rate,
    /// so a miss was latency alone.
    pub kept_pace: bool,
    /// Requests completed per second during the probe.
    pub achieved_rps: f64,
}

/// Highest rate in `[lo, hi]` meeting the limit, by bisection within a
/// budget of `probes` probes; `lo` is taken to meet it unprobed. Two
/// refinements suit a shared machine: a miss on latency alone is probed
/// once more, so a single stall of the machine does not decide, and a
/// miss caps the bracket at the rate the probe achieved, since no offered
/// rate above what the server completes can meet the limit.
pub fn bisect_max_rate(
    lo: f64,
    hi: f64,
    probes: usize,
    mut probe: impl FnMut(f64) -> ProbeVerdict,
) -> f64 {
    let (mut good, mut bad) = (lo, hi);
    let mut left = probes;
    while left > 0 {
        let mid = (good + bad) / 2.0;
        let mut verdict = probe(mid);
        left -= 1;
        if !verdict.meets && verdict.kept_pace && left > 0 {
            verdict = probe(mid);
            left -= 1;
        }
        if verdict.meets {
            good = mid;
        } else {
            bad = mid.min(verdict.achieved_rps).max(good);
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use adq::infer::serve::{ServeConfig, ServeModel, Server};
    use adq::tensor::Tensor;

    /// Answers each image with its own first and last value, so a response
    /// shows which request it belongs to.
    struct EchoModel;

    impl ServeModel for EchoModel {
        fn input_shape(&self) -> (usize, usize) {
            (1, 2)
        }
        fn classes(&self) -> usize {
            2
        }
        fn run(&self, images: &Tensor) -> Tensor {
            let n = images.dims()[0];
            let mut out = Tensor::zeros(&[n, 2]);
            for i in 0..n {
                out.data_mut()[2 * i] = images.data()[4 * i];
                out.data_mut()[2 * i + 1] = images.data()[4 * i + 3];
            }
            out
        }
    }

    fn echo_pool() -> ImagePool {
        let images: Vec<Vec<f32>> = (0..8)
            .map(|i| vec![i as f32, 0.5, -0.5, -(i as f32)])
            .collect();
        let expected = images.iter().map(|im| vec![im[0], im[3]]).collect();
        ImagePool { images, expected }
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed() {
        let a = poisson_schedule(7, 500.0, Duration::from_secs(2));
        let b = poisson_schedule(7, 500.0, Duration::from_secs(2));
        let c = poisson_schedule(8, 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // about rate × window arrivals, strictly increasing
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn frames_round_trip_through_a_live_server_by_id() {
        let config = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::new(EchoModel), config).unwrap();
        let pool = echo_pool();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // pipeline every request before reading any answer
        let ids: Vec<u64> = (100..116).collect();
        for &id in &ids {
            let image = &pool.images[id as usize % 8];
            stream.write_all(&encode_infer(id, image)).unwrap();
        }
        let mut seen = Vec::new();
        for _ in &ids {
            match read_response(&mut stream).unwrap().unwrap() {
                Response::Logits { id, logits } => {
                    assert!(pool.matches(id as usize % 8, &logits), "id {id}");
                    seen.push(id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, ids);
        server.shutdown();
    }

    #[test]
    fn open_loop_counts_every_request_and_checks_answers() {
        let mut server =
            Server::bind("127.0.0.1:0", Arc::new(EchoModel), ServeConfig::default()).unwrap();
        let pool = echo_pool();
        let schedule = poisson_schedule(3, 400.0, Duration::from_millis(250));
        let result = open_loop(server.local_addr(), &pool, 3, &schedule).unwrap();
        server.shutdown();
        assert_eq!(result.sent as usize, schedule.len());
        assert_eq!(result.ok, result.sent);
        assert_eq!(result.failed(), 0);
        assert_eq!(result.latencies_ns.len(), schedule.len());
    }

    /// A stub server: meets the limit up to `knee`, completes at most
    /// `1.2 × knee` requests per second.
    fn stub(knee: f64) -> impl FnMut(f64) -> ProbeVerdict {
        move |rate| ProbeVerdict {
            meets: rate <= knee,
            kept_pace: rate <= 1.2 * knee,
            achieved_rps: rate.min(1.2 * knee),
        }
    }

    #[test]
    fn bisection_is_monotone_in_the_knee() {
        let mut last = 0.0;
        for knee in [250.0, 600.0, 1000.0, 1070.0, 1500.0, 2500.0] {
            let mut probes = 0;
            let mut curve = stub(knee);
            let found = bisect_max_rate(200.0, 3000.0, 12, |rate| {
                probes += 1;
                curve(rate)
            });
            assert_eq!(probes, 12);
            assert!(
                found <= knee && knee - found <= 0.02 * knee,
                "knee {knee}: {found}"
            );
            assert!(found > last, "knee {knee}: {found} after {last}");
            last = found;
        }
        // a curve nothing meets keeps the floor
        let never = |rate: f64| ProbeVerdict {
            meets: false,
            kept_pace: true,
            achieved_rps: rate,
        };
        assert_eq!(bisect_max_rate(200.0, 3000.0, 5, never), 200.0);
    }

    #[test]
    fn one_stalled_probe_does_not_decide() {
        let mut curve = stub(1000.0);
        let mut stalled = false;
        let with_stall = bisect_max_rate(200.0, 3000.0, 12, |rate| {
            // the first probe below the knee hits a stall
            if rate < 1000.0 && !stalled {
                stalled = true;
                return ProbeVerdict {
                    meets: false,
                    kept_pace: true,
                    achieved_rps: rate,
                };
            }
            curve(rate)
        });
        assert!(stalled);
        let clean = bisect_max_rate(200.0, 3000.0, 12, stub(1000.0));
        assert!((with_stall - 1000.0).abs() <= 20.0, "{with_stall}");
        assert!((clean - 1000.0).abs() <= 20.0, "{clean}");
    }
}
