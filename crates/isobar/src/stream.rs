//! The compress session and its reader, over `std::io` sinks and
//! sources.
//!
//! In-situ pipelines (the paper's target deployment) hand the
//! compressor data incrementally — a simulation writes elements as it
//! produces them, and checkpoints flow straight to the file system.
//! [`IsobarWriter`] is the one compress session: it accepts bytes
//! through `std::io::Write`, runs the ISOBAR workflow one chunk at a
//! time, and writes each record as soon as it exists, so nothing is
//! buffered beyond a sub-chunk tail and the sink never needs to seek.
//! What it writes is the container of [`crate::container`] in its
//! streamed form (length and Adler-32 in a trailer); the batch calls of
//! [`crate::IsobarCompressor`] drive the same session with the length
//! declared up front and get the batch form. [`IsobarReader`] decodes
//! either form through `std::io::Read`, and is the strict record
//! walker behind the slice `decompress`.
//!
//! The session is the reference C surface's one stateful stream:
//! `isobarDeflateInit` / `Analysis` / `Deflate` / `End` are
//! [`IsobarWriter::new`] / [`IsobarWriter::decide`] / `write` /
//! [`IsobarWriter::finish`]. The EUPA decision is made once per
//! container (the paper's single decision per dataset): by `decide`,
//! or else on the first chunk written.

use crate::analyzer::{Analyzer, ColumnSelection};
use crate::chunk::element_chunks;
use crate::container::{
    ChunkHeader, ChunkMode, ChunkRecord, Header, Trailer, CHUNK_HEADER_LEN, END_MARKER, HEADER_LEN,
    LEN_IN_TRAILER, TRAILER_LEN, VERSION,
};
use crate::error::IsobarError;
use crate::eupa::EupaSelector;
use crate::pipeline::{
    analyze_chunk, compress_chunk, decode_chunk_record, pooled, ChunkResult, CompressionReport,
    IsobarOptions, PipelineScratch,
};
use crate::span::{stage, Span};
use isobar_codecs::deflate::Adler32;
use isobar_codecs::{codec_for, Codec, CodecId};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Phase, Recorder, TelemetrySnapshot};
use isobar_trace as trace;
use std::borrow::BorrowMut;
use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

fn io_err(e: IsobarError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Merge the records of one run into `sink` (§II.D), the first being
/// chunk `first_index`: one gathered write, so a `Vec` sink reserves
/// the exact total once and a file sink gets one `writev`. Returns the
/// bytes written.
fn write_records(
    sink: &mut impl Write,
    results: &[ChunkResult],
    first_index: usize,
) -> io::Result<usize> {
    let heads: Vec<_> = (first_index..)
        .zip(results)
        .map(|(index, result)| {
            let _merge_span = trace::span(Phase::ChunkMerge, index as u32);
            result.record.head_bytes()
        })
        .collect();
    let mut parts = Vec::with_capacity(3 * results.len());
    for (head, result) in heads.iter().zip(results) {
        parts.push(IoSlice::new(head));
        parts.push(IoSlice::new(&result.record.compressed));
        parts.push(IoSlice::new(&result.record.incompressible));
    }
    let total = parts.iter().map(|part| part.len()).sum();
    let mut parts = &mut parts[..];
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match sink.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// The typed error inside an `io::Error` this module produced; a
/// failure of the underlying source or sink reads as truncation.
pub(crate) fn isobar_error(e: io::Error) -> IsobarError {
    match e.get_ref().and_then(|r| r.downcast_ref::<IsobarError>()) {
        Some(inner) => inner.clone(),
        None => IsobarError::Truncated,
    }
}

/// How a batch call's caller takes part in its solver and layout
/// decision: given the head chunk's column mask and a closure that runs
/// EUPA, return the (solver, layout) pick to compress with.
pub(crate) type Pick<'a> =
    dyn FnMut(u64, &mut dyn FnMut() -> (CodecId, Linearization)) -> (CodecId, Linearization) + 'a;

/// The ISOBAR compress session: write element bytes in, the container
/// comes out of the wrapped sink.
///
/// Call [`IsobarWriter::finish`] to compress the final partial chunk
/// and write the integrity trailer; dropping without finishing loses
/// buffered data (the same contract as `std::io::BufWriter`). How the
/// input is split across `write` calls never changes the bytes
/// written. `S` is the working memory: owned by default, or a
/// `&mut PipelineScratch` a long-lived caller keeps warm
/// ([`IsobarWriter::with_scratch`]).
///
/// # Example
///
/// ```
/// use isobar::{IsobarOptions, IsobarReader, IsobarWriter};
/// use std::io::Write;
///
/// let data: Vec<u8> = (0..20_000u64)
///     .flat_map(|i| ((i / 50) << 32 | i.wrapping_mul(0x9E37_79B9) >> 32).to_le_bytes())
///     .collect();
///
/// let mut writer = IsobarWriter::new(Vec::new(), 8, IsobarOptions::default())?;
/// writer.write_all(&data)?;
/// let (stream, report) = writer.finish()?;
/// assert_eq!(report.output_len, stream.len());
///
/// let restored = IsobarReader::new(&stream[..])?.read_to_vec()?;
/// assert_eq!(restored, data);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct IsobarWriter<W: Write, S: BorrowMut<PipelineScratch> = PipelineScratch> {
    sink: W,
    options: IsobarOptions,
    width: usize,
    chunk_bytes: usize,
    analyzer: Analyzer,
    /// The solver, once decided (the report names it and the
    /// linearization).
    codec: Option<Box<dyn Codec>>,
    /// Length and Adler-32 declared up front: they go in the header
    /// (the batch form) instead of the trailer.
    declared: Option<Trailer>,
    /// Bytes accepted past the last whole chunk.
    tail: Vec<u8>,
    /// The first chunk's analysis, when deciding already made it.
    head: Option<ColumnSelection>,
    checksum: Adler32,
    scratch: S,
    recorder: Recorder,
    /// Filled in as the session runs; `finish` hands it over.
    report: CompressionReport,
    started: Instant,
}

impl<W: Write> IsobarWriter<W> {
    /// Open a session over `sink` for elements of `width` bytes.
    pub fn new(sink: W, width: usize, options: IsobarOptions) -> Result<Self, IsobarError> {
        Self::with_scratch(sink, width, options, PipelineScratch::new())
    }
}

impl<W: Write, S: BorrowMut<PipelineScratch>> IsobarWriter<W, S> {
    /// [`IsobarWriter::new`] on caller-held working memory.
    pub fn with_scratch(
        sink: W,
        width: usize,
        options: IsobarOptions,
        scratch: S,
    ) -> Result<Self, IsobarError> {
        if width == 0 || width > 64 {
            return Err(IsobarError::BadWidth(width));
        }
        let mut recorder = Recorder::new();
        recorder.set_kernel_tier(isobar_simd::active_tier().as_u8());
        Ok(IsobarWriter {
            sink,
            width,
            chunk_bytes: options.chunk_elements * width,
            analyzer: Analyzer::with_tau(options.tau),
            codec: None,
            declared: None,
            tail: Vec::new(),
            head: None,
            checksum: Adler32::new(),
            scratch,
            recorder,
            report: CompressionReport {
                // The overrides, or placeholders until `decide`.
                codec: options.codec_override.unwrap_or(CodecId::Deflate),
                linearization: options.linearization_override.unwrap_or(Linearization::Row),
                eupa: None,
                chunks: Vec::new(),
                input_len: 0,
                output_len: 0,
                eupa_secs: 0.0,
                total_secs: 0.0,
                telemetry: TelemetrySnapshot::default(),
            },
            started: Instant::now(),
            options,
        })
    }

    /// Declare, before anything else, the length and Adler-32 of all
    /// that will be written: the header then carries both (the batch
    /// form) and the last feed's ragged chunk is compressed where it
    /// lies.
    pub(crate) fn declare(&mut self, total_len: usize, checksum: u32) -> Result<(), IsobarError> {
        if !total_len.is_multiple_of(self.width) {
            return Err(IsobarError::MisalignedInput {
                len: total_len,
                width: self.width,
            });
        }
        self.declared = Some(Trailer {
            total_len: total_len as u64,
            checksum,
        });
        Ok(())
    }

    /// Fix the container's solver and linearization from `sample`
    /// (whole elements, typically the head of the data) and write the
    /// header that names them: EUPA's trial compressions under the head
    /// chunk's classification, for whichever of the two is not
    /// overridden. The first decision stands — a session that has not
    /// decided when its first chunk arrives decides on that chunk.
    pub fn decide(&mut self, sample: &[u8]) -> io::Result<()> {
        self.decide_on(sample, false, None)
    }

    /// [`IsobarWriter::decide`]; `first_chunk` says `sample` begins
    /// with the container's first chunk — the batch calls' whole input,
    /// the chunk an undecided session decides on — whose analysis is
    /// then made once, here, as that chunk's. `pick`, when given, is
    /// handed the head chunk's column mask and a closure that runs EUPA,
    /// and returns the solver and layout to use (see
    /// [`IsobarCompressor::compress_with_pick`](crate::IsobarCompressor::compress_with_pick)).
    pub(crate) fn decide_on(
        &mut self,
        sample: &[u8],
        first_chunk: bool,
        pick: Option<&mut Pick<'_>>,
    ) -> io::Result<()> {
        if self.codec.is_some() {
            return Ok(());
        }
        let opts = self.options;
        if opts.codec_override.is_none() || opts.linearization_override.is_none() {
            // The sample inherits the head chunk's classification;
            // undetermined datasets sample as all-compressible.
            let head = element_chunks(sample, self.width, opts.chunk_elements)
                .next()
                .unwrap_or(&[]);
            let head_sel = if first_chunk && !head.is_empty() {
                let selection =
                    analyze_chunk(head, self.width, 0, &self.analyzer, &mut self.recorder)
                        .map_err(io_err)?;
                self.head.insert(selection).clone()
            } else {
                self.analyzer.analyze(head, self.width).map_err(io_err)?
            };
            let mask = head_sel.to_mask().map_err(io_err)?;
            let eupa_sel = if head_sel.is_improvable() {
                head_sel
            } else {
                ColumnSelection::new(vec![true; self.width])
            };
            let (width, scratch, recorder, report) = (
                self.width,
                self.scratch.borrow_mut(),
                &mut self.recorder,
                &mut self.report,
            );
            let mut eupa = || {
                let span = Span::open(Phase::EupaSelect, trace::NO_CHUNK);
                let eupa = EupaSelector {
                    level: opts.level,
                    ..opts.eupa
                };
                let decision = eupa.select_recorded(
                    sample,
                    width,
                    &eupa_sel,
                    opts.preference,
                    scratch,
                    recorder,
                );
                report.eupa_secs = span.record(recorder).as_secs_f64();
                let picked = (decision.codec, decision.linearization);
                report.eupa = Some(decision);
                picked
            };
            let (codec, linearization) = match pick {
                Some(pick) => pick(mask, &mut eupa),
                None => eupa(),
            };
            self.report.codec = opts.codec_override.unwrap_or(codec);
            self.report.linearization = opts.linearization_override.unwrap_or(linearization);
        }
        self.codec = Some(codec_for(self.report.codec, opts.level));
        let end = self.declared.unwrap_or(Trailer {
            total_len: LEN_IN_TRAILER,
            checksum: 0,
        });
        let mut header = Vec::with_capacity(HEADER_LEN);
        Header {
            version: VERSION,
            width: self.width as u8,
            codec: self.report.codec,
            level: opts.level,
            linearization: self.report.linearization,
            preference: opts.preference.to_u8(),
            chunk_elements: opts.chunk_elements as u32,
            total_len: end.total_len,
            checksum: end.checksum,
        }
        .write(&mut header);
        self.put(&header)
    }

    /// Write the header or the trailer.
    fn put(&mut self, framing: &[u8]) -> io::Result<()> {
        self.sink.write_all(framing)?;
        self.report.output_len += framing.len();
        self.recorder
            .add(Counter::ContainerMetadataBytes, framing.len() as u64);
        Ok(())
    }

    /// Compress `run` — whole chunks, except that the last may be the
    /// input's short final one — and merge the records into the sink
    /// (§II.D). Two or more chunks go to the thread pool when the
    /// options ask for it.
    fn compress_run(&mut self, run: &[u8]) -> io::Result<()> {
        self.decide_on(&run[..run.len().min(self.chunk_bytes)], true, None)?;
        let head = self.head.take();
        let codec = self.codec.as_deref().expect("decided above");
        let (width, analyzer, linearization) =
            (self.width, &self.analyzer, self.report.linearization);
        let first_index = self.report.chunks.len();
        let chunks: Vec<&[u8]> = element_chunks(run, width, self.options.chunk_elements).collect();
        let compress = |i: usize, scratch: &mut PipelineScratch, recorder: &mut Recorder| {
            let index = (first_index + i) as u32;
            compress_chunk(
                chunks[i],
                width,
                index,
                analyzer,
                head.as_ref().filter(|_| index == 0).cloned(),
                codec,
                linearization,
                scratch,
                recorder,
            )
        };
        let results: Result<Vec<_>, _> = if self.options.parallel && chunks.len() > 1 {
            let pool = pooled(chunks.len(), &mut self.recorder, compress);
            pool.into_iter().collect()
        } else {
            let (scratch, recorder) = (self.scratch.borrow_mut(), &mut self.recorder);
            (0..chunks.len())
                .map(|i| compress(i, scratch, recorder))
                .collect()
        };
        let results = results.map_err(io_err)?;

        let sink = &mut self.sink;
        self.report.output_len += stage(
            &mut self.recorder,
            Phase::ContainerWrite,
            trace::NO_CHUNK,
            |_| write_records(sink, &results, first_index),
        )?;
        let metadata = (CHUNK_HEADER_LEN * results.len()) as u64;
        self.recorder.add(Counter::ContainerMetadataBytes, metadata);
        self.report
            .chunks
            .extend(results.into_iter().map(|result| result.decision));
        Ok(())
    }

    /// Compress any buffered partial chunk, write the trailer (unless
    /// the length was declared up front) and flush; returns the inner
    /// sink and the session's report.
    pub fn finish(mut self) -> io::Result<(W, CompressionReport)> {
        // Only whole elements can be compressed.
        if !self.tail.len().is_multiple_of(self.width) {
            return Err(io_err(IsobarError::MisalignedInput {
                len: self.report.input_len,
                width: self.width,
            }));
        }
        let tail = std::mem::take(&mut self.tail);
        if !tail.is_empty() {
            self.compress_run(&tail)?;
        }
        // An empty input still owes its header — and no record.
        self.decide(&[])?;
        match self.declared {
            // The header is already out: a mismatch would be a corrupt
            // container, and only this crate's batch calls declare.
            Some(end) => assert_eq!(end.total_len, self.report.input_len as u64),
            None => {
                let trailer = Trailer {
                    total_len: self.report.input_len as u64,
                    checksum: self.checksum.finish(),
                };
                self.put(&trailer.to_bytes())?;
            }
        }
        self.sink.flush()?;
        self.report.total_secs = self.started.elapsed().as_secs_f64();
        self.report.telemetry = self.recorder.snapshot();
        Ok((self.sink, self.report))
    }
}

impl<W: Write, S: BorrowMut<PipelineScratch>> Write for IsobarWriter<W, S> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.declared.is_none() {
            self.checksum.update(data);
        }
        self.report.input_len += data.len();
        let mut rest = data;
        if !self.tail.is_empty() {
            // Top the buffered tail up to one whole chunk first.
            let take = (self.chunk_bytes - self.tail.len()).min(rest.len());
            self.tail.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.tail.len() < self.chunk_bytes {
                return Ok(data.len());
            }
            let chunk = std::mem::take(&mut self.tail);
            self.compress_run(&chunk)?;
            self.tail = chunk;
            self.tail.clear();
        }
        // Whole chunks are compressed where they lie, and only what is
        // left over is copied. With the length declared, the feed that
        // reaches it ends in the input's final chunk, which goes along.
        let last_feed = self
            .declared
            .is_some_and(|end| end.total_len == self.report.input_len as u64);
        let run = if last_feed {
            rest.len()
        } else {
            rest.len() - rest.len() % self.chunk_bytes
        };
        if run > 0 {
            self.compress_run(&rest[..run])?;
        }
        self.tail.extend_from_slice(&rest[run..]);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Chunks are written on size boundaries; a partial chunk waits
        // for finish() so chunk statistics stay sound.
        self.sink.flush()
    }
}

fn read_exact(source: &mut impl Read, buf: &mut [u8]) -> Result<(), IsobarError> {
    source.read_exact(buf).map_err(|_| IsobarError::Truncated)
}

/// Replace `payload` with the next `len` bytes of `source`. Pre-sized
/// only up to a modest bound: a lying length field then costs
/// allocation proportional to the bytes the source actually delivers,
/// not the claimed length.
fn read_payload(
    source: &mut impl Read,
    payload: &mut Vec<u8>,
    len: usize,
) -> Result<(), IsobarError> {
    payload.clear();
    payload.reserve(len.min(1 << 20));
    match source.take(len as u64).read_to_end(payload) {
        Ok(got) if got == len => Ok(()),
        _ => Err(IsobarError::Truncated),
    }
}

fn blank_record() -> ChunkRecord {
    ChunkRecord {
        mode: ChunkMode::Passthrough,
        elements: 0,
        mask: 0,
        compressed: Vec::new(),
        incompressible: Vec::new(),
    }
}

/// The ISOBAR decompressor: reads a container of either form — batch
/// or streamed — from `source` in constant memory and yields the
/// original bytes through `Read`. Strict: the first structural defect
/// or checksum mismatch fails the read.
pub struct IsobarReader<R: Read, S: BorrowMut<PipelineScratch> = PipelineScratch> {
    source: R,
    header: Header,
    /// Verify chunk checksums and the whole-stream Adler-32.
    verify: bool,
    codec: Box<dyn Codec>,
    /// The record fetched last; its payload buffers carry across chunks.
    record: ChunkRecord,
    /// Decoded bytes not yet handed to the caller.
    pending: Vec<u8>,
    pending_pos: usize,
    /// Once the records are over: what the container says they held,
    /// and where its Adler-32 field sits.
    end: Option<(Trailer, u64)>,
    /// Original bytes the records fetched so far account for.
    produced: u64,
    checksum: Adler32,
    /// Container bytes consumed from the source so far — the byte
    /// offset attached to decode errors.
    consumed: u64,
    fetch_nanos: u64,
    scratch: S,
    recorder: Recorder,
    /// Chunks decoded so far — the chunk index on trace spans.
    chunks_read: u32,
}

impl<R: Read> IsobarReader<R> {
    /// Parse the header and prepare to decode, verifying embedded
    /// checksums (the default).
    pub fn new(source: R) -> Result<Self, IsobarError> {
        Self::with_verify(source, true)
    }

    /// [`IsobarReader::new`] with an explicit checksum-verification
    /// knob. `verify: false` trades integrity detection for decode
    /// throughput; structural validation still happens either way.
    pub fn with_verify(source: R, verify: bool) -> Result<Self, IsobarError> {
        Self::with_scratch(source, verify, PipelineScratch::new())
    }
}

impl<R: Read, S: BorrowMut<PipelineScratch>> IsobarReader<R, S> {
    /// [`IsobarReader::with_verify`] on caller-held working memory.
    pub fn with_scratch(mut source: R, verify: bool, scratch: S) -> Result<Self, IsobarError> {
        // A short source still gets its magic looked at: the retired
        // stream framing's whole header is shorter than this one.
        let mut fixed = Vec::with_capacity(HEADER_LEN);
        let _ = (&mut source)
            .take(HEADER_LEN as u64)
            .read_to_end(&mut fixed);
        let header = Header::read(&fixed).map_err(|e| e.at(0))?;
        let mut recorder = Recorder::new();
        recorder.add(Counter::ContainerMetadataBytes, HEADER_LEN as u64);
        Ok(IsobarReader {
            source,
            codec: codec_for(header.codec, header.level),
            header,
            verify,
            record: blank_record(),
            pending: Vec::new(),
            pending_pos: 0,
            end: None,
            produced: 0,
            checksum: Adler32::new(),
            consumed: HEADER_LEN as u64,
            fetch_nanos: 0,
            scratch,
            recorder,
            chunks_read: 0,
        })
    }

    /// Snapshot of the telemetry recorded so far (header, chunk, and
    /// trailer accounting accumulate as the container is consumed).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot()
    }

    pub(crate) fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Read the whole remaining container into a buffer.
    pub fn read_to_vec(mut self) -> Result<Vec<u8>, IsobarError> {
        self.decode_all(false, 0)
    }

    /// Decode everything that remains, the source being `source_len`
    /// bytes long (0 when unknown).
    pub(crate) fn decode_all(
        &mut self,
        parallel: bool,
        source_len: usize,
    ) -> Result<Vec<u8>, IsobarError> {
        // Reserve what the batch form declares, capped: a corrupted
        // header must not be able to request an absurd reservation
        // before validation fails.
        let declared = if self.header.len_in_trailer() {
            0
        } else {
            self.header.total_len as usize
        };
        let mut out = Vec::with_capacity(declared.min(source_len.saturating_mul(512)).min(1 << 31));
        let result = self.decode_onto(&mut out, parallel);
        self.rejected(result).map(|()| out)
    }

    /// `parallel` fetches every record first and decodes them on the
    /// thread pool.
    fn decode_onto(&mut self, out: &mut Vec<u8>, parallel: bool) -> Result<(), IsobarError> {
        if !parallel {
            while self.next_chunk(out)? {}
            return Ok(());
        }
        let (width, linearization) = (self.header.width as usize, self.header.linearization);
        let span = Span::open(Phase::ContainerRead, trace::NO_CHUNK);
        let mut records = Vec::new();
        while let Some(offset) = self.fetch()? {
            records.push((offset, std::mem::replace(&mut self.record, blank_record())));
        }
        self.fetched(span);
        let codec = self.codec.as_ref();
        let chunks = pooled(records.len(), &mut self.recorder, |i, scratch, recorder| {
            let (offset, record) = &records[i];
            let (index, mut chunk) = (i as u32, Vec::new());
            decode_chunk_record(
                record,
                width,
                index,
                codec,
                linearization,
                &mut chunk,
                scratch,
                recorder,
            )
            .map(|()| chunk)
            .map_err(|e| e.at(*offset))
        });
        for chunk in chunks {
            out.extend_from_slice(&chunk?);
        }
        self.verify_end(out)
    }

    /// Count a failed decode: every one is a rejection of corrupt
    /// input.
    fn rejected<T>(&mut self, result: Result<T, IsobarError>) -> Result<T, IsobarError> {
        if let Err(e) = &result {
            self.recorder.incr(Counter::ContainerCorruptRejected);
            if e.is_checksum_mismatch() {
                self.recorder.incr(Counter::ChecksumMismatches);
            }
        }
        result
    }

    /// Fetch the next record into `self.record`, structure validated
    /// and checksum verified, and return its offset; `None` once the
    /// records are over, with `self.end` set. Errors carry the offset
    /// they arose at.
    fn fetch(&mut self) -> Result<Option<u64>, IsobarError> {
        let offset = self.consumed;
        let more = self.fetch_at(offset).map_err(|e| e.at(offset))?;
        Ok(more.then_some(offset))
    }

    /// Close the container-read span of one or more fetches into the
    /// stage total `verify_end` records.
    fn fetched(&mut self, span: Span) {
        let (start, end) = span.close();
        self.fetch_nanos += (end - start).as_nanos() as u64;
    }

    fn fetch_at(&mut self, offset: u64) -> Result<bool, IsobarError> {
        let streamed = self.header.len_in_trailer();
        if !streamed && self.produced >= self.header.total_len {
            // The Adler-32 field sits at byte 24 of the header.
            self.end = Some((self.header.own_end(), 24));
            return Ok(false);
        }
        // Record lengths are untrusted: read the fixed part and
        // validate it fully *before* allocating for or reading the
        // payloads, first byte first — in the streamed form it is
        // either a mode or the end marker.
        let mut fixed = [0u8; CHUNK_HEADER_LEN];
        read_exact(&mut self.source, &mut fixed[..1])?;
        if streamed && fixed[0] == END_MARKER {
            read_exact(&mut self.source, &mut fixed[1..TRAILER_LEN])?;
            let fields = fixed[1..TRAILER_LEN].try_into().expect("12 bytes");
            self.end = Some((Trailer::parse(fields), offset + TRAILER_LEN as u64 - 4));
            self.recorder
                .add(Counter::ContainerMetadataBytes, TRAILER_LEN as u64);
            return Ok(false);
        }
        ChunkMode::from_u8(fixed[0])?;
        read_exact(&mut self.source, &mut fixed[1..])?;
        let width = self.header.width as usize;
        let header = ChunkHeader::validate(&fixed, width, self.header.chunk_elements)?;
        let record = &mut self.record;
        (record.mode, record.elements, record.mask) = (header.mode, header.elements, header.mask);
        read_payload(&mut self.source, &mut record.compressed, header.comp_len)?;
        read_payload(
            &mut self.source,
            &mut record.incompressible,
            header.incomp_len,
        )?;
        self.consumed = offset + record.encoded_len() as u64;
        if self.verify {
            header.verify(&fixed, &record.compressed, &record.incompressible, offset)?;
        }
        if header.elements == 0 {
            // Structurally valid, but it would never advance the walk.
            return Err(IsobarError::Corrupt("empty chunk record"));
        }
        self.produced = self
            .produced
            .saturating_add(u64::from(header.elements) * width as u64);
        self.recorder
            .add(Counter::ContainerMetadataBytes, CHUNK_HEADER_LEN as u64);
        Ok(true)
    }

    /// Decode the next chunk onto `out`; `false` once the container is
    /// over and what it declared about itself checked out.
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> Result<bool, IsobarError> {
        let chunk_index = self.chunks_read;
        let span = Span::open(Phase::ContainerRead, chunk_index);
        let fetched = self.fetch()?;
        self.fetched(span);
        let Some(offset) = fetched else {
            self.verify_end(&[])?;
            return Ok(false);
        };
        self.chunks_read += 1;
        let width = self.header.width as usize;
        let start = out.len();
        decode_chunk_record(
            &self.record,
            width,
            chunk_index,
            self.codec.as_ref(),
            self.header.linearization,
            out,
            self.scratch.borrow_mut(),
            &mut self.recorder,
        )
        .map_err(|e| e.at(offset))?;
        if self.verify {
            self.checksum.update(&out[start..]);
        }
        Ok(true)
    }

    /// After the last record: the length and Adler-32 the container
    /// declares against what was decoded, `unsummed` being the part of
    /// it the running checksum has not seen yet.
    fn verify_end(&mut self, unsummed: &[u8]) -> Result<(), IsobarError> {
        let (end, checksum_at) = self.end.expect("walk reached the end");
        self.recorder
            .record_stage(Phase::ContainerRead, self.fetch_nanos);
        if end.total_len != self.produced {
            return Err(IsobarError::Corrupt("reassembled length mismatch"));
        }
        if self.verify {
            self.checksum.update(unsummed);
            let actual = self.checksum.finish();
            if actual != end.checksum {
                return Err(IsobarError::ChecksumMismatch {
                    offset: checksum_at,
                    expected: u64::from(end.checksum),
                    actual: u64::from(actual),
                });
            }
        }
        Ok(())
    }
}

impl<R: Read, S: BorrowMut<PipelineScratch>> Read for IsobarReader<R, S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pending_pos == self.pending.len() {
            if self.end.is_some() {
                return Ok(0);
            }
            // Decode into the fully-consumed pending buffer so its
            // capacity (and the scratch) carry across chunks.
            let mut pending = std::mem::take(&mut self.pending);
            pending.clear();
            let result = self.next_chunk(&mut pending);
            self.pending = pending;
            self.pending_pos = 0;
            self.rejected(result).map_err(io_err)?;
        }
        let n = out.len().min(self.pending.len() - self.pending_pos);
        out[..n].copy_from_slice(&self.pending[self.pending_pos..self.pending_pos + n]);
        self.pending_pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eupa::EupaSelector;
    use crate::pipeline::IsobarCompressor;
    use crate::{CodecId, Preference};

    fn test_options() -> IsobarOptions {
        IsobarOptions {
            preference: Preference::Speed,
            chunk_elements: 5_000,
            eupa: EupaSelector {
                sample_elements: 1024,
                sample_blocks: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn demo_data(n: usize) -> Vec<u8> {
        let mut state = 0xFEEDu64;
        (0..n)
            .flat_map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((i as u64 / 64) << 32) | (state >> 32)).to_le_bytes()
            })
            .collect()
    }

    #[test]
    fn stream_round_trips_multi_chunk_data() {
        let data = demo_data(23_456); // several chunks + ragged tail
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        // Feed in odd-sized pieces to exercise buffering.
        for piece in data.chunks(777) {
            writer.write_all(piece).unwrap();
        }
        let (stream, _) = writer.finish().unwrap();

        let reader = IsobarReader::new(&stream[..]).unwrap();
        assert_eq!(reader.read_to_vec().unwrap(), data);
    }

    #[test]
    fn stream_compresses_like_the_batch_pipeline() {
        // A single-chunk input and no `decide` call: the session decides
        // on its first (only) chunk — the batch call's whole-input
        // sample — whichever overrides are set.
        let data: Vec<u8> = (0..20_000u32)
            .flat_map(|i| {
                ((f64::from(i) * 0.001).sin() * 1e3 + f64::from(i % 7) * 1e-7).to_le_bytes()
            })
            .collect();
        let (z, bz) = (CodecId::Deflate, CodecId::Bzip2Like);
        let (row, column) = (Linearization::Row, Linearization::Column);
        for (codec, lin, picked) in [
            (None, None, None),
            // EUPA still runs for the half that is not forced: with the
            // solver pinned it picks Column on this field.
            (Some(z), None, Some((z, column))),
            (None, Some(row), None),
            (Some(bz), Some(column), Some((bz, column))),
        ] {
            let options = IsobarOptions {
                preference: Preference::Ratio,
                chunk_elements: 20_000,
                codec_override: codec,
                linearization_override: lin,
                ..Default::default()
            };
            let mut writer = IsobarWriter::new(Vec::new(), 8, options).unwrap();
            writer.write_all(&data).unwrap();
            let (stream, report) = writer.finish().unwrap();
            let (batch, batch_report) = IsobarCompressor::new(options)
                .compress_with_report(&data, 8)
                .unwrap();
            // Bytes 6 and 8 name the solver and the linearization.
            assert_eq!(stream[..16], batch[..16], "{codec:?} {lin:?}");
            assert_eq!(
                stream[HEADER_LEN..stream.len() - TRAILER_LEN],
                batch[HEADER_LEN..],
                "{codec:?} {lin:?}"
            );
            let pick = (report.codec, report.linearization);
            assert_eq!(pick, (batch_report.codec, batch_report.linearization));
            assert_eq!(pick, picked.unwrap_or(pick), "{codec:?} {lin:?}");
            assert_eq!(report.eupa.is_some(), codec.is_none() || lin.is_none());
            assert_eq!(report.htc_pct(), batch_report.htc_pct());
            assert!(stream.len() < data.len());
        }
    }

    #[test]
    fn the_first_chunk_is_analyzed_once_whoever_decides() {
        // A session deciding on its own first chunk keeps that chunk's
        // analysis for the chunk; a caller's `decide(sample)` cannot
        // (the sample need not begin the container), so chunk 0 is
        // classified again. Same records, same analyzer accounting.
        let data = demo_data(12_000);
        let first_chunk = &data[..5_000 * 8];
        let run = |callers_sample: bool| {
            let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
            if callers_sample {
                writer.decide(first_chunk).unwrap();
            } else {
                writer.decide_on(first_chunk, true, None).unwrap();
            }
            assert_eq!(writer.head.is_some(), !callers_sample);
            writer.write_all(&data).unwrap();
            assert!(writer.head.is_none());
            writer.finish().unwrap()
        };
        let (own, own_report) = run(false);
        let (callers, callers_report) = run(true);
        assert_eq!(own, callers);
        let (own, callers) = (own_report.telemetry, callers_report.telemetry);
        for counter in [
            Counter::AnalyzerChunks,
            Counter::AnalyzerBytes,
            Counter::ColumnsCompressible,
            Counter::ColumnsIncompressible,
        ] {
            assert_eq!(own.counter(counter), callers.counter(counter));
        }
        assert_eq!(own.tau_margin, callers.tau_margin);
        assert_eq!(
            own.stage(Phase::Analyze).count,
            callers.stage(Phase::Analyze).count
        );
        if isobar_telemetry::ENABLED {
            assert_eq!(own.counter(Counter::AnalyzerChunks), 3);
            assert_eq!(own.stage(Phase::Analyze).count, 3);
        }
        // An empty input has no first chunk to analyze.
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.decide_on(&[], true, None).unwrap();
        assert!(writer.head.is_none());
    }

    #[test]
    fn empty_stream_round_trips() {
        // An empty input is a header and, streamed, a trailer — no
        // zero-element record — and every tool takes both forms.
        use crate::salvage::{fsck_container, salvage_container};
        let writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        let (stream, report) = writer.finish().unwrap();
        assert_eq!(stream.len(), HEADER_LEN + TRAILER_LEN);
        assert!(report.chunks.is_empty());
        let isobar = IsobarCompressor::new(test_options());
        let batch = isobar.compress(&[], 8).unwrap();
        assert_eq!(batch.len(), HEADER_LEN);
        for form in [&stream, &batch] {
            let reader = IsobarReader::new(&form[..]).unwrap();
            assert_eq!(reader.read_to_vec().unwrap(), Vec::<u8>::new());
            assert_eq!(isobar.decompress(form).unwrap(), Vec::<u8>::new());
            let fsck = fsck_container(form).unwrap();
            assert!(fsck.is_clean() && fsck.chunks.is_empty(), "{fsck:?}");
            let (rebuilt, salvage) = salvage_container(form).unwrap();
            assert!(salvage.is_complete() && !salvage.length_unverified);
            assert_eq!(rebuilt.len(), HEADER_LEN);
            assert!(fsck_container(&rebuilt).unwrap().is_clean());
        }
    }

    #[test]
    fn misaligned_tail_is_rejected_at_finish() {
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.write_all(&[1, 2, 3]).unwrap();
        assert!(writer.finish().is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let data = demo_data(12_000);
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.write_all(&data).unwrap();
        let (stream, _) = writer.finish().unwrap();
        for cut in [0, 5, 9, stream.len() / 2, stream.len() - 1] {
            match IsobarReader::new(&stream[..cut]) {
                Err(_) => {}
                Ok(reader) => assert!(reader.read_to_vec().is_err(), "cut {cut}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let data = demo_data(12_000);
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.write_all(&data).unwrap();
        let (mut stream, _) = writer.finish().unwrap();
        let mid = stream.len() / 2;
        stream[mid] ^= 0x08;
        let result = IsobarReader::new(&stream[..]).and_then(|r| r.read_to_vec());
        match result {
            Err(_) => {}
            Ok(out) => assert_eq!(out, data, "silent corruption"),
        }
    }

    #[test]
    fn overrides_fix_the_decision_without_sampling() {
        let data = demo_data(10_000);
        let mut options = test_options();
        options.codec_override = Some(CodecId::Bzip2Like);
        options.linearization_override = Some(Linearization::Column);
        let mut writer = IsobarWriter::new(Vec::new(), 8, options).unwrap();
        writer.write_all(&data).unwrap();
        let (stream, _) = writer.finish().unwrap();
        // Header carries the forced decision.
        assert_eq!(stream[6], CodecId::Bzip2Like as u8);
        assert_eq!(stream[8], Linearization::Column as u8);
        let reader = IsobarReader::new(&stream[..]).unwrap();
        assert_eq!(reader.read_to_vec().unwrap(), data);
    }

    #[test]
    fn reader_supports_small_incremental_reads() {
        let data = demo_data(9_000);
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.write_all(&data).unwrap();
        let (stream, _) = writer.finish().unwrap();

        let mut reader = IsobarReader::new(&stream[..]).unwrap();
        let mut out = Vec::new();
        let mut small = [0u8; 97];
        loop {
            let n = reader.read(&mut small).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&small[..n]);
        }
        assert_eq!(out, data);
    }
}
