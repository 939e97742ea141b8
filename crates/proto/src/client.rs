//! The client side: a typed API over any byte transport.

use bytes::Bytes;
use gear_hash::{Digest, Fingerprint};
use gear_image::{ImageRef, Manifest};
use gear_simnet::{RetryPolicy, VirtualClock};
use gear_telemetry::Telemetry;

use crate::batch::BatchEntry;
use crate::message::{ProtoError, Request, Response, Status};
use crate::service::RegistryService;

/// Moves framed bytes to a registry node and back — the seam where a real
/// TCP stack would sit.
pub trait Transport {
    /// Sends framed request bytes; returns framed response bytes.
    fn round_trip(&mut self, wire: &[u8]) -> Vec<u8>;

    /// Bytes sent so far (for traffic accounting).
    fn bytes_sent(&self) -> u64;

    /// Bytes received so far.
    fn bytes_received(&self) -> u64;
}

/// An in-process transport wrapping a [`RegistryService`] directly.
#[derive(Debug, Default)]
pub struct Loopback {
    service: RegistryService,
    sent: u64,
    received: u64,
}

impl Loopback {
    /// Wraps a service.
    pub fn new(service: RegistryService) -> Self {
        Loopback { service, sent: 0, received: 0 }
    }

    /// The wrapped service.
    pub fn service(&self) -> &RegistryService {
        &self.service
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut RegistryService {
        &mut self.service
    }
}

impl Transport for Loopback {
    fn round_trip(&mut self, wire: &[u8]) -> Vec<u8> {
        self.sent += wire.len() as u64;
        let response = self.service.handle_wire(wire);
        self.received += response.len() as u64;
        response
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// Typed client over a [`Transport`], implementing the paper's three Gear
/// verbs plus the Docker pull endpoints.
///
/// With [`RegistryClient::with_retry`], transport-level failures (unparseable
/// frames, per-attempt timeouts measured on the virtual clock, payloads that
/// fail content verification) are retried under a [`RetryPolicy`]: each retry
/// waits an exponentially growing, seeded-jitter backoff charged to the
/// clock, and an exhausted budget surfaces as [`ProtoError::Exhausted`].
/// Application-level answers (`404`, `400`) are never retried. A `503`
/// ([`Status::Overloaded`] — a sharded registry's admission queue is full)
/// is the one status treated as transport-level: the same request succeeds
/// once load drains, so it consumes attempts separated by backoff.
#[derive(Debug)]
pub struct RegistryClient<T> {
    transport: T,
    retry: Option<(RetryPolicy, VirtualClock)>,
    retries: u64,
    telemetry: Telemetry,
}

impl<T: Transport> RegistryClient<T> {
    /// Wraps a transport; no retries, errors surface immediately.
    pub fn new(transport: T) -> Self {
        RegistryClient { transport, retry: None, retries: 0, telemetry: Telemetry::noop() }
    }

    /// Wraps a transport with a retry policy. Attempt durations and backoff
    /// waits are measured against / charged to `clock` — share it with the
    /// transport (e.g. [`FaultyTransport`](crate::FaultyTransport)) so
    /// per-attempt timeouts observe the simulated cost of each attempt.
    pub fn with_retry(transport: T, policy: RetryPolicy, clock: VirtualClock) -> Self {
        RegistryClient {
            transport,
            retry: Some((policy, clock)),
            retries: 0,
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry recorder: every request becomes a `proto` span
    /// (timed on the retry clock when one is present), and retries/backoff
    /// show up as counters and instant events.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Builder form of [`RegistryClient::set_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.set_recorder(telemetry);
        self
    }

    /// The underlying transport (for traffic accounting).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Consumes the client, returning the transport.
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Failed attempts that were retried (or counted toward exhaustion).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn call(&mut self, request: &Request) -> Result<Response, ProtoError> {
        self.call_checked(request, |_| Ok(()))
    }

    /// One logical request: under a retry policy, transport-level failures
    /// (including `check` rejections) consume attempts separated by backoff;
    /// without one, the first error surfaces directly.
    fn call_checked(
        &mut self,
        request: &Request,
        check: impl Fn(&Response) -> Result<(), ProtoError>,
    ) -> Result<Response, ProtoError> {
        // One context per logical request: the innermost open span (the
        // deploy step issuing this call) becomes the flow producer, and
        // every attempt carries the same parent so the server's flow-end
        // binds to it.
        let wire = request.to_wire_traced(self.telemetry.outbound_context());
        self.telemetry.count("proto.requests", 1);
        let Some((policy, clock)) = self.retry.clone() else {
            let response = Response::parse(&self.transport.round_trip(&wire))?;
            admitted(&response)?;
            check(&response)?;
            return Ok(response);
        };
        let attempts = policy.max_attempts.max(1);
        let started = clock.elapsed();
        let mut last = ProtoError::Malformed("no attempt made".to_owned());
        let mut answer = None;
        let mut used = 0u64;
        for attempt in 0..attempts {
            if attempt > 0 {
                let wait = policy.backoff(attempt);
                clock.advance(wait);
                self.telemetry.count("proto.backoff_nanos", wait.as_nanos() as u64);
            }
            used += 1;
            let before = clock.elapsed();
            let raw = self.transport.round_trip(&wire);
            let took = clock.elapsed().saturating_sub(before);
            let outcome = if took > policy.timeout {
                Err(ProtoError::Timeout(took))
            } else {
                Response::parse(&raw).and_then(|response| {
                    admitted(&response)?;
                    check(&response)?;
                    Ok(response)
                })
            };
            match outcome {
                Ok(response) => {
                    answer = Some(response);
                    break;
                }
                Err(error) => {
                    self.retries += 1;
                    self.telemetry.count("proto.retries", 1);
                    self.telemetry.instant("proto", "retry");
                    last = error;
                }
            }
        }
        if self.telemetry.enabled() {
            // The whole logical request (attempts + backoff waits) becomes
            // one span, priced by the virtual clock it was charged to.
            let took = clock.elapsed().saturating_sub(started);
            self.telemetry.scoped_span(
                "proto",
                request.verb(),
                self.telemetry.now(),
                took,
                &[("attempts", used)],
            );
            self.telemetry.sketch("proto.request_nanos", took.as_nanos() as u64);
        }
        match answer {
            Some(response) => Ok(response),
            None => Err(ProtoError::Exhausted { attempts, last: Box::new(last) }),
        }
    }

    /// `query`: whether the Gear file exists.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on framing failures or unexpected statuses.
    pub fn query(&mut self, fingerprint: Fingerprint) -> Result<bool, ProtoError> {
        match self.call(&Request::Query(fingerprint))?.status {
            Status::Ok => Ok(true),
            Status::NotFound => Ok(false),
            other => Err(ProtoError::Unexpected(other)),
        }
    }

    /// `upload`: stores a Gear file; returns whether it was newly stored.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Unexpected`] with [`Status::BadRequest`] when the
    /// content does not hash to `fingerprint`.
    pub fn upload(&mut self, fingerprint: Fingerprint, body: Bytes) -> Result<bool, ProtoError> {
        match self.call(&Request::Upload(fingerprint, body))?.status {
            Status::Created => Ok(true),
            Status::Ok => Ok(false),
            other => Err(ProtoError::Unexpected(other)),
        }
    }

    /// `download`: fetches a Gear file, re-verifying that the payload hashes
    /// to the requested fingerprint (end-to-end corruption detection).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Unexpected`] with [`Status::NotFound`] if absent;
    /// [`ProtoError::Corrupted`] if the payload fails verification.
    pub fn download(&mut self, fingerprint: Fingerprint) -> Result<Bytes, ProtoError> {
        let response = self.call_checked(&Request::Download(fingerprint), |response| {
            if response.status == Status::Ok && Fingerprint::of(&response.body) != fingerprint {
                Err(ProtoError::Corrupted(format!(
                    "gear file {fingerprint}: payload does not hash to its fingerprint"
                )))
            } else {
                Ok(())
            }
        })?;
        match response.status {
            Status::Ok => Ok(response.body),
            other => Err(ProtoError::Unexpected(other)),
        }
    }

    /// `query_many`: tests K fingerprints in one round-trip; results line up
    /// with `fingerprints`.
    ///
    /// Under a retry policy, damaged sub-answers are re-requested as a
    /// smaller batch (good entries are kept); each pass consumes one
    /// attempt. Without a policy, the first damaged entry surfaces as an
    /// error.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on framing failures, unexpected statuses, or an
    /// exhausted retry budget.
    pub fn query_many(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, ProtoError> {
        self.batched(fingerprints, Request::QueryMany, |entry, wanted| match entry {
            BatchEntry::Hit(fp) if fp == wanted => Some(true),
            BatchEntry::Absent(fp) if fp == wanted => Some(false),
            _ => None,
        })
    }

    /// `download_many`: fetches K files in one pipelined round-trip; each
    /// result is `Some(content)` (verified against its fingerprint) or
    /// `None` for files the registry does not hold.
    ///
    /// Retry semantics match [`RegistryClient::query_many`]: only the
    /// damaged subset is re-requested, so one flaky sub-answer does not
    /// re-transfer the whole batch.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on framing failures, unexpected statuses, or an
    /// exhausted retry budget.
    pub fn download_many(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Option<Bytes>>, ProtoError> {
        self.batched(fingerprints, Request::DownloadMany, |entry, wanted| match entry {
            BatchEntry::Found(fp, body)
                if fp == wanted && Fingerprint::of(&body) == wanted =>
            {
                Some(Some(body))
            }
            BatchEntry::Miss(fp) if fp == wanted => Some(None),
            _ => None,
        })
    }

    /// `download_range`: fetches `offset..offset + len` of a Gear file, the
    /// lazy-pull verb — only the requested window crosses the wire. The
    /// answer may be shorter than `len` when the range crosses EOF.
    ///
    /// An arbitrary slice cannot be re-verified against the *whole-file*
    /// MD5, so this verb only rejects over-long payloads; the verified lazy
    /// path is [`RegistryClient::download_chunks`], where every chunk is its
    /// own content-addressed blob and hashes end-to-end.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Unexpected`] with [`Status::NotFound`] if absent;
    /// [`ProtoError::Corrupted`] if the payload exceeds the requested
    /// length.
    pub fn download_range(
        &mut self,
        fingerprint: Fingerprint,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, ProtoError> {
        let request = Request::DownloadRange(fingerprint, offset, len);
        let response = self.call_checked(&request, |response| {
            if response.status == Status::Ok && response.body.len() as u64 > len {
                Err(ProtoError::Corrupted(format!(
                    "gear file {fingerprint}: range answered {} bytes for a {len}-byte window",
                    response.body.len()
                )))
            } else {
                Ok(())
            }
        })?;
        match response.status {
            Status::Ok => Ok(response.body),
            other => Err(ProtoError::Unexpected(other)),
        }
    }

    /// `download_chunks`: fetches K chunk blobs in one pipelined
    /// round-trip; each result is `Some(content)` (verified against its
    /// chunk fingerprint) or `None` for chunks the registry does not hold.
    ///
    /// This is the verified lazy-pull path for chunk-granularity images:
    /// every chunk is a first-class content-addressed blob, so unlike
    /// [`RegistryClient::download_range`] each payload hashes end-to-end.
    /// Retry semantics match [`RegistryClient::download_many`]: only the
    /// damaged subset is re-requested.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on framing failures, unexpected statuses, or an
    /// exhausted retry budget.
    pub fn download_chunks(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Option<Bytes>>, ProtoError> {
        self.batched(fingerprints, Request::DownloadChunks, |entry, wanted| match entry {
            BatchEntry::Found(fp, body)
                if fp == wanted && Fingerprint::of(&body) == wanted =>
            {
                Some(Some(body))
            }
            BatchEntry::Miss(fp) if fp == wanted => Some(None),
            _ => None,
        })
    }

    /// Shared batched-verb driver: issues `make(pending)`, accepts entries
    /// `accept` validates, and re-requests the rejected subset until the
    /// retry budget runs out.
    fn batched<R: Clone>(
        &mut self,
        fingerprints: &[Fingerprint],
        make: impl Fn(Vec<Fingerprint>) -> Request,
        accept: impl Fn(BatchEntry, Fingerprint) -> Option<R>,
    ) -> Result<Vec<R>, ProtoError> {
        if fingerprints.is_empty() {
            return Ok(Vec::new());
        }
        let mut results: Vec<Option<R>> = vec![None; fingerprints.len()];
        let mut pending: Vec<usize> = (0..fingerprints.len()).collect();
        let attempts = match &self.retry {
            Some((policy, _)) => policy.max_attempts.max(1),
            None => 1,
        };
        let mut last = ProtoError::Malformed("no attempt made".to_owned());
        for attempt in 0..attempts {
            // Whole-frame failures (unparseable response, timeout) are
            // already retried inside `call`; this loop spends attempts on
            // per-entry damage only.
            let wanted: Vec<Fingerprint> =
                pending.iter().map(|&i| fingerprints[i]).collect();
            let response = self.call(&make(wanted.clone()))?;
            if response.status != Status::Ok {
                return Err(ProtoError::Unexpected(response.status));
            }
            let entries = crate::batch::decode_entries(&response.body)?;
            let mut still = Vec::new();
            if entries.len() == wanted.len() {
                for (slot, entry) in pending.iter().zip(entries) {
                    let wanted_fp = fingerprints[*slot];
                    match accept(entry, wanted_fp) {
                        Some(value) => results[*slot] = Some(value),
                        None => {
                            still.push(*slot);
                            last = ProtoError::Corrupted(format!(
                                "gear file {wanted_fp}: batched sub-answer failed verification"
                            ));
                        }
                    }
                }
            } else {
                still = pending.clone();
                last = ProtoError::Malformed(format!(
                    "batch answered {} entries for {} sub-requests",
                    entries.len(),
                    wanted.len()
                ));
            }
            if !still.is_empty() {
                self.retries += still.len() as u64;
                self.telemetry.count("proto.retries", still.len() as u64);
                self.telemetry.instant("proto", "retry");
                if let Some((policy, clock)) = &self.retry {
                    if attempt + 1 < attempts {
                        let wait = policy.backoff(attempt + 1);
                        clock.advance(wait);
                        self.telemetry.count("proto.backoff_nanos", wait.as_nanos() as u64);
                    }
                }
            }
            pending = still;
            if pending.is_empty() {
                let done: Option<Vec<R>> = results.into_iter().collect();
                return done.ok_or_else(|| {
                    ProtoError::Malformed("batch finished with an unanswered slot".to_owned())
                });
            }
        }
        if attempts == 1 && self.retry.is_none() {
            return Err(last);
        }
        Err(ProtoError::Exhausted { attempts, last: Box::new(last) })
    }

    /// Fetches and parses a manifest.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for missing images or malformed manifests.
    pub fn manifest(&mut self, reference: &ImageRef) -> Result<Manifest, ProtoError> {
        let response = self.call(&Request::GetManifest(reference.clone()))?;
        match response.status {
            Status::Ok => Manifest::from_json(&response.body)
                .map_err(|e| ProtoError::Malformed(e.to_string())),
            other => Err(ProtoError::Unexpected(other)),
        }
    }

    /// Fetches a raw blob, re-verifying that the payload hashes to the
    /// requested digest.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Unexpected`] with [`Status::NotFound`] if absent;
    /// [`ProtoError::Corrupted`] if the payload fails verification.
    pub fn blob(&mut self, digest: Digest) -> Result<Bytes, ProtoError> {
        let response = self.call_checked(&Request::GetBlob(digest), |response| {
            if response.status == Status::Ok && Digest::of(&response.body) != digest {
                Err(ProtoError::Corrupted(format!(
                    "blob {digest}: payload does not hash to its digest"
                )))
            } else {
                Ok(())
            }
        })?;
        match response.status {
            Status::Ok => Ok(response.body),
            other => Err(ProtoError::Unexpected(other)),
        }
    }
}

/// A `503` is a statement about load, not content: classify it with the
/// transport-level failures so the retry loop consumes an attempt and backs
/// off, instead of surfacing it as a final answer.
fn admitted(response: &Response) -> Result<(), ProtoError> {
    if response.status == Status::Overloaded {
        return Err(ProtoError::Unexpected(Status::Overloaded));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use gear_registry::{DockerRegistry, GearFileStore};

    fn client() -> RegistryClient<Loopback> {
        RegistryClient::new(Loopback::new(RegistryService::new(
            DockerRegistry::new(),
            GearFileStore::new(),
        )))
    }

    #[test]
    fn verbs_roundtrip_through_wire() {
        let mut c = client();
        let body = Bytes::from_static(b"file body");
        let fp = Fingerprint::of(&body);
        assert!(!c.query(fp).unwrap());
        assert!(c.upload(fp, body.clone()).unwrap());
        assert!(!c.upload(fp, body.clone()).unwrap(), "second upload dedups");
        assert!(c.query(fp).unwrap());
        assert_eq!(c.download(fp).unwrap(), body);
    }

    #[test]
    fn batched_verbs_roundtrip() {
        let mut c = client();
        let a = Bytes::from_static(b"file a");
        let b = Bytes::from_static(b"file b");
        let (fa, fb) = (Fingerprint::of(&a), Fingerprint::of(&b));
        let ghost = Fingerprint::of(b"ghost");
        c.upload(fa, a.clone()).unwrap();
        c.upload(fb, b.clone()).unwrap();

        assert_eq!(c.query_many(&[fa, ghost, fb]).unwrap(), vec![true, false, true]);
        assert_eq!(
            c.download_many(&[ghost, fa, fb]).unwrap(),
            vec![None, Some(a), Some(b)]
        );
        assert!(c.query_many(&[]).unwrap().is_empty());
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn range_and_chunk_verbs_roundtrip() {
        let mut c = client();
        let body = Bytes::from((0u8..=255).cycle().take(1024).collect::<Vec<u8>>());
        let fp = Fingerprint::of(&body);
        c.upload(fp, body.clone()).unwrap();

        assert_eq!(c.download_range(fp, 0, 64).unwrap(), body.slice(0..64));
        assert_eq!(c.download_range(fp, 512, 256).unwrap(), body.slice(512..768));
        // Crossing EOF yields a short (possibly empty) answer, not an error.
        assert_eq!(c.download_range(fp, 1000, 500).unwrap(), body.slice(1000..1024));
        assert!(c.download_range(fp, 5000, 10).unwrap().is_empty());
        assert!(matches!(
            c.download_range(Fingerprint::of(b"ghost"), 0, 1),
            Err(ProtoError::Unexpected(Status::NotFound))
        ));

        let chunk = Bytes::from_static(b"one chunk");
        let cfp = Fingerprint::of(&chunk);
        c.upload(cfp, chunk.clone()).unwrap();
        assert_eq!(
            c.download_chunks(&[cfp, Fingerprint::of(b"missing")]).unwrap(),
            vec![Some(chunk), None]
        );
        assert!(c.download_chunks(&[]).unwrap().is_empty());
    }

    #[test]
    fn chunk_sub_faults_retry_only_the_damaged_subset() {
        use gear_simnet::{FaultKind, FaultPlan, FaultyLink, Link, RetryPolicy, VirtualClock};

        let mut loopback = Loopback::default();
        let chunks: Vec<Bytes> = (0..6u8).map(|i| Bytes::from(vec![i + 1; 48])).collect();
        let fps: Vec<Fingerprint> = chunks.iter().map(|c| Fingerprint::of(c)).collect();
        for (fp, chunk) in fps.iter().zip(&chunks) {
            loopback.service_mut().files_mut().upload(*fp, chunk.clone()).unwrap();
        }

        // Two sub-answers of the first chunk batch are damaged; the retry
        // batch re-requests exactly those two.
        let plan = FaultPlan::new(0)
            .fail_requests(2, 2, FaultKind::Corrupt)
            .fail_requests(4, 4, FaultKind::Drop);
        let clock = VirtualClock::new();
        let transport = crate::FaultyTransport::new(
            loopback,
            FaultyLink::new(Link::mbps(100.0), plan),
            clock.clone(),
        );
        let mut client =
            RegistryClient::with_retry(transport, RetryPolicy::standard(5), clock);
        let got = client.download_chunks(&fps).unwrap();
        assert_eq!(got, chunks.iter().cloned().map(Some).collect::<Vec<_>>());
        assert_eq!(client.retries(), 2, "one retry per damaged chunk");
    }

    #[test]
    fn batched_sub_faults_retry_only_the_damaged_subset() {
        use gear_simnet::{FaultKind, FaultPlan, FaultyLink, Link, RetryPolicy, VirtualClock};

        let mut loopback = Loopback::default();
        let bodies: Vec<Bytes> = (0..4u8)
            .map(|i| Bytes::from(vec![i + 1; 64]))
            .collect();
        let fps: Vec<Fingerprint> = bodies.iter().map(|b| Fingerprint::of(b)).collect();
        for (fp, body) in fps.iter().zip(&bodies) {
            loopback.service_mut().files_mut().upload(*fp, body.clone()).unwrap();
        }

        // Sub-requests 1 and 2 of the first batch are damaged; the retry
        // batch (2 sub-requests, fault indexes 4..) is clean.
        let plan = FaultPlan::new(0)
            .fail_requests(1, 1, FaultKind::Drop)
            .fail_requests(2, 2, FaultKind::Corrupt);
        let clock = VirtualClock::new();
        let transport = crate::FaultyTransport::new(
            loopback,
            FaultyLink::new(Link::mbps(100.0), plan),
            clock.clone(),
        );
        let mut client =
            RegistryClient::with_retry(transport, RetryPolicy::standard(5), clock);
        let got = client.download_many(&fps).unwrap();
        assert_eq!(got, bodies.iter().cloned().map(Some).collect::<Vec<_>>());
        assert_eq!(client.retries(), 2, "one retry per damaged sub-answer");
    }

    #[test]
    fn batched_faults_without_policy_surface_typed_errors() {
        use gear_simnet::{FaultKind, FaultPlan, FaultyLink, Link, VirtualClock};

        let mut loopback = Loopback::default();
        let body = Bytes::from_static(b"present");
        let fp = Fingerprint::of(&body);
        loopback.service_mut().files_mut().upload(fp, body).unwrap();

        let plan = FaultPlan::new(0).fail_requests(0, 0, FaultKind::Drop);
        let transport = crate::FaultyTransport::new(
            loopback,
            FaultyLink::new(Link::mbps(100.0), plan),
            VirtualClock::new(),
        );
        let mut client = RegistryClient::new(transport);
        assert!(matches!(
            client.download_many(&[fp]).unwrap_err(),
            ProtoError::Corrupted(_)
        ));
    }

    #[test]
    fn trace_context_stitches_client_and_server_spans() {
        let (t, collector) = Telemetry::collector();
        let mut service = RegistryService::default();
        service.set_recorder(t.clone());
        let mut c = RegistryClient::new(Loopback::new(service)).with_recorder(t.clone());

        t.set_trace_id(0x77);
        let outer = t.span_start("client", "deploy");
        assert!(!c.query(Fingerprint::of(b"anything")).unwrap());
        t.span_end(outer);

        let json = collector.trace_json();
        assert!(json.contains("serve query"), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "flow end missing: {json}");
        assert!(json.contains("\"trace_id\":119"), "{json}");
        assert!(collector.validate().is_empty(), "{:?}", collector.validate());
    }

    #[test]
    fn traffic_is_accounted() {
        let mut c = client();
        let body = Bytes::from(vec![1u8; 1000]);
        let fp = Fingerprint::of(&body);
        c.upload(fp, body).unwrap();
        assert!(c.transport().bytes_sent() > 1000, "headers + body counted");
        c.download(fp).unwrap();
        assert!(c.transport().bytes_received() > 1000);
    }

    #[test]
    fn transient_drops_are_retried_to_success() {
        use gear_simnet::{FaultKind, FaultPlan, FaultyLink, Link, RetryPolicy, VirtualClock};

        let body = Bytes::from_static(b"survives two drops");
        let fp = Fingerprint::of(&body);
        let mut loopback = Loopback::default();
        loopback.service_mut().files_mut().upload(fp, body.clone()).unwrap();

        // Requests 0 and 1 drop; attempt 3 succeeds within a 4-attempt budget.
        let plan = FaultPlan::new(0).fail_requests(0, 1, FaultKind::Drop);
        let clock = VirtualClock::new();
        let transport = crate::FaultyTransport::new(
            loopback,
            FaultyLink::new(Link::mbps(100.0), plan),
            clock.clone(),
        );
        let mut client =
            RegistryClient::with_retry(transport, RetryPolicy::standard(3), clock.clone());
        assert_eq!(client.download(fp).unwrap(), body);
        assert_eq!(client.retries(), 2);
        // Two give-ups + two backoffs + one clean transfer all charged.
        assert!(clock.elapsed() > Duration::from_secs(2));
    }

    #[test]
    fn exhausted_budget_is_typed_never_wrong_bytes() {
        use gear_simnet::{FaultPlan, FaultyLink, Link, RetryPolicy, VirtualClock};

        let body = Bytes::from_static(b"unreachable");
        let fp = Fingerprint::of(&body);
        let mut loopback = Loopback::default();
        loopback.service_mut().files_mut().upload(fp, body).unwrap();

        let plan = FaultPlan::new(0).with_drop(1.0);
        let clock = VirtualClock::new();
        let transport = crate::FaultyTransport::new(
            loopback,
            FaultyLink::new(Link::mbps(100.0), plan),
            clock.clone(),
        );
        let mut client = RegistryClient::with_retry(transport, RetryPolicy::standard(3), clock);
        match client.download(fp).unwrap_err() {
            ProtoError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 4);
                assert!(matches!(*last, ProtoError::Malformed(_)));
            }
            other => panic!("expected Exhausted, got {other}"),
        }
    }

    #[test]
    fn application_errors_are_not_retried() {
        use gear_simnet::{RetryPolicy, VirtualClock};

        let clock = VirtualClock::new();
        let mut c = RegistryClient::with_retry(
            Loopback::default(),
            RetryPolicy::standard(1),
            clock,
        );
        let fp = Fingerprint::of(b"absent");
        assert!(matches!(
            c.download(fp),
            Err(ProtoError::Unexpected(Status::NotFound))
        ));
        assert_eq!(c.retries(), 0, "a 404 is an answer, not a fault");
    }

    /// Rejects the first `rejections` round-trips with `503`, then serves.
    struct Admission {
        inner: Loopback,
        rejections: u32,
    }

    impl Transport for Admission {
        fn round_trip(&mut self, wire: &[u8]) -> Vec<u8> {
            if self.rejections > 0 {
                self.rejections -= 1;
                return Response::status_only(Status::Overloaded).to_wire();
            }
            self.inner.round_trip(wire)
        }

        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }

        fn bytes_received(&self) -> u64 {
            self.inner.bytes_received()
        }
    }

    #[test]
    fn overload_rejections_are_retried_with_backoff() {
        use gear_simnet::{RetryPolicy, VirtualClock};

        let body = Bytes::from_static(b"served after the queue drains");
        let fp = Fingerprint::of(&body);
        let mut loopback = Loopback::default();
        loopback.service_mut().files_mut().upload(fp, body.clone()).unwrap();

        let clock = VirtualClock::new();
        let transport = Admission { inner: loopback, rejections: 2 };
        let mut client =
            RegistryClient::with_retry(transport, RetryPolicy::standard(11), clock.clone());
        assert_eq!(client.download(fp).unwrap(), body);
        assert_eq!(client.retries(), 2, "each 503 consumes an attempt");
        assert!(clock.elapsed() >= Duration::from_millis(50), "backoff was charged");
    }

    #[test]
    fn persistent_overload_exhausts_the_budget() {
        use gear_simnet::{RetryPolicy, VirtualClock};

        let clock = VirtualClock::new();
        let transport = Admission { inner: Loopback::default(), rejections: u32::MAX };
        let mut client = RegistryClient::with_retry(transport, RetryPolicy::standard(7), clock);
        match client.download(Fingerprint::of(b"anything")).unwrap_err() {
            ProtoError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 4);
                assert!(matches!(*last, ProtoError::Unexpected(Status::Overloaded)));
            }
            other => panic!("expected Exhausted, got {other}"),
        }
    }

    #[test]
    fn overload_without_policy_surfaces_immediately() {
        let transport = Admission { inner: Loopback::default(), rejections: 1 };
        let mut client = RegistryClient::new(transport);
        assert!(matches!(
            client.query(Fingerprint::of(b"x")),
            Err(ProtoError::Unexpected(Status::Overloaded))
        ));
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn errors_are_typed() {
        let mut c = client();
        let fp = Fingerprint::of(b"missing");
        assert!(matches!(
            c.download(fp),
            Err(ProtoError::Unexpected(Status::NotFound))
        ));
        assert!(matches!(
            c.upload(fp, Bytes::from_static(b"wrong")),
            Err(ProtoError::Unexpected(Status::BadRequest))
        ));
        assert!(matches!(
            c.manifest(&"ghost:1".parse().unwrap()),
            Err(ProtoError::Unexpected(Status::NotFound))
        ));
    }
}
