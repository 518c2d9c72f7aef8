//! Streaming compression over `std::io` sinks and sources.
//!
//! In-situ pipelines (the paper's target deployment) hand the
//! compressor data incrementally — a simulation writes elements as it
//! produces them, and checkpoints flow straight to the file system.
//! [`IsobarWriter`] accepts bytes through `std::io::Write`, runs the
//! ISOBAR workflow one chunk at a time, and emits a *streamable*
//! container: unlike [`crate::container::Header`], no field depends on
//! data that has not been seen yet, so nothing is buffered beyond one
//! chunk and the sink never needs to seek. [`IsobarReader`] is the
//! matching `std::io::Read` decompressor.
//!
//! Framing (all little-endian):
//!
//! ```text
//! magic "ISBS" | version u8 | width u8 | codec u8 | level u8 | lin u8
//! repeated:  0x01 | ChunkRecord          (see container.rs)
//! final:     0x00 | total_len u64 | adler32 u32
//! ```
//!
//! The EUPA decision is made once, on the first chunk (matching the
//! paper's single decision per dataset/stream), unless overrides fix
//! it up front.

use crate::analyzer::{Analyzer, ColumnSelection};
use crate::container::{chunk_header_len, level_from_u8, level_to_u8, ChunkHeader, ChunkRecord};
use crate::error::IsobarError;
use crate::pipeline::{IsobarOptions, PipelineScratch};
use isobar_codecs::deflate::Adler32;
use isobar_codecs::{codec_for, Codec, CodecId};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Recorder, TelemetrySnapshot};
use isobar_trace as trace;
use isobar_trace::TraceTag;
use std::io::{self, Read, Write};

/// Stream container magic: "ISBS" (S for streaming).
pub const STREAM_MAGIC: [u8; 4] = *b"ISBS";
/// Stream container version written by this build. Version-2 chunk
/// frames embed the XXH64 chunk checksum (see `container.rs`);
/// version-1 streams — which carry none — are still read.
pub const STREAM_VERSION: u8 = 2;
/// The checksum-less stream version this build still reads.
pub const STREAM_LEGACY_VERSION: u8 = 1;

/// Marker byte preceding each chunk record.
const MARK_CHUNK: u8 = 1;
/// Marker byte preceding the trailer.
const MARK_END: u8 = 0;

/// Stream header size: magic + version + width + codec + level +
/// linearization.
pub const STREAM_HEADER_LEN: usize = 9;
/// Stream trailer size: end marker + total length (u64) + Adler-32.
pub const STREAM_TRAILER_LEN: usize = 13;

fn io_err(e: IsobarError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Streaming ISOBAR compressor: write element bytes in, compressed
/// stream comes out of the wrapped sink.
///
/// Call [`IsobarWriter::finish`] to flush the final partial chunk and
/// the integrity trailer; dropping without finishing loses buffered
/// data (the same contract as `std::io::BufWriter` + checksum).
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
/// let stream = writer.finish()?;
///
/// let restored = IsobarReader::new(&stream[..])?.read_to_vec()?;
/// assert_eq!(restored, data);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct IsobarWriter<W: Write> {
    sink: W,
    options: IsobarOptions,
    width: usize,
    codec: Option<Box<dyn Codec>>,
    linearization: Linearization,
    analyzer: Analyzer,
    buf: Vec<u8>,
    chunk_bytes: usize,
    total_len: u64,
    checksum: Adler32,
    header_written: bool,
    finished: bool,
    /// Working memory reused across chunk flushes.
    scratch: PipelineScratch,
    /// Telemetry accumulated across the stream's lifetime.
    recorder: Recorder,
    /// Chunks flushed so far — the chunk index attached to trace spans.
    chunks_written: u32,
}

impl<W: Write> IsobarWriter<W> {
    /// Create a streaming compressor over `sink` for elements of
    /// `width` bytes.
    pub fn new(sink: W, width: usize, options: IsobarOptions) -> Result<Self, IsobarError> {
        if width == 0 || width > 64 {
            return Err(IsobarError::BadWidth(width));
        }
        let linearization = options.linearization_override.unwrap_or(Linearization::Row);
        let codec = options
            .codec_override
            .map(|id| codec_for(id, options.level));
        Ok(IsobarWriter {
            sink,
            width,
            codec,
            linearization,
            analyzer: Analyzer::with_tau(options.tau),
            buf: Vec::new(),
            chunk_bytes: options.chunk_elements * width,
            total_len: 0,
            checksum: Adler32::new(),
            header_written: false,
            finished: false,
            scratch: PipelineScratch::new(),
            recorder: Recorder::new(),
            chunks_written: 0,
            options,
        })
    }

    /// Bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.total_len
    }

    /// Telemetry recorded so far (EUPA decision, per-chunk stage
    /// timings, stream framing bytes). For the totals including the
    /// final partial chunk and trailer, use
    /// [`IsobarWriter::finish_with_telemetry`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot()
    }

    fn decide_if_needed(&mut self, first_chunk: &[u8]) -> Result<(), IsobarError> {
        if self.codec.is_some() {
            return Ok(());
        }
        // EUPA on the first chunk, exactly like the batch pipeline.
        let selection = self.analyzer.analyze(first_chunk, self.width)?;
        let eupa_selection = if selection.is_improvable() {
            selection
        } else {
            ColumnSelection::new(vec![true; self.width])
        };
        let mut eupa = self.options.eupa;
        eupa.level = self.options.level;
        let decision = eupa.select_recorded(
            first_chunk,
            self.width,
            &eupa_selection,
            self.options.preference,
            &mut self.scratch,
            &mut self.recorder,
        );
        self.codec = Some(codec_for(decision.codec, self.options.level));
        if self.options.linearization_override.is_none() {
            self.linearization = decision.linearization;
        }
        Ok(())
    }

    fn write_header(&mut self) -> io::Result<()> {
        debug_assert!(!self.header_written);
        let codec_id = self
            .codec
            .as_ref()
            .ok_or_else(|| io_err(IsobarError::Corrupt("stream codec undecided")))?
            .id();
        self.sink.write_all(&STREAM_MAGIC)?;
        self.sink.write_all(&[
            STREAM_VERSION,
            self.width as u8,
            codec_id as u8,
            level_to_u8(self.options.level),
            self.linearization as u8,
        ])?;
        self.recorder
            .add(Counter::StreamMetadataBytes, STREAM_HEADER_LEN as u64);
        self.header_written = true;
        Ok(())
    }

    fn flush_chunk(&mut self, chunk: Vec<u8>) -> io::Result<()> {
        let chunk_index = self.chunks_written;
        self.chunks_written = self.chunks_written.wrapping_add(1);
        let _span = trace::span(TraceTag::StreamChunkWrite, chunk_index);
        self.decide_if_needed(&chunk).map_err(io_err)?;
        if !self.header_written {
            self.write_header()?;
        }
        let codec = self
            .codec
            .as_ref()
            .ok_or_else(|| io_err(IsobarError::Corrupt("stream codec undecided")))?
            .as_ref();
        let record = crate::pipeline::build_chunk_record(
            &chunk,
            self.width,
            chunk_index,
            &self.analyzer,
            codec,
            self.linearization,
            &mut self.scratch,
            &mut self.recorder,
        )
        .map_err(io_err)?;
        let mut encoded = Vec::with_capacity(record.compressed.len() + 64);
        encoded.push(MARK_CHUNK);
        record.write(&mut encoded);
        self.recorder.incr(Counter::StreamChunksWritten);
        self.recorder.add(
            Counter::StreamMetadataBytes,
            1 + crate::container::CHUNK_HEADER_LEN as u64,
        );
        self.sink.write_all(&encoded)
    }

    fn finish_inner(&mut self) -> io::Result<()> {
        // Only whole elements can be compressed.
        let rem = self.buf.len() % self.width;
        if rem != 0 {
            return Err(io_err(IsobarError::MisalignedInput {
                len: self.total_len as usize,
                width: self.width,
            }));
        }
        if !self.buf.is_empty() || !self.header_written {
            let chunk = std::mem::take(&mut self.buf);
            self.flush_chunk(chunk)?;
        }
        self.sink.write_all(&[MARK_END])?;
        self.sink.write_all(&self.total_len.to_le_bytes())?;
        self.sink.write_all(&self.checksum.finish().to_le_bytes())?;
        self.recorder
            .add(Counter::StreamMetadataBytes, STREAM_TRAILER_LEN as u64);
        self.sink.flush()?;
        self.finished = true;
        Ok(())
    }

    /// Flush any buffered partial chunk and write the trailer;
    /// returns the inner sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.finish_inner()?;
        Ok(self.sink)
    }

    /// [`IsobarWriter::finish`], also returning the stream's complete
    /// telemetry (including the final partial chunk and trailer).
    pub fn finish_with_telemetry(mut self) -> io::Result<(W, TelemetrySnapshot)> {
        self.finish_inner()?;
        let snapshot = self.recorder.snapshot();
        Ok((self.sink, snapshot))
    }
}

impl<W: Write> Write for IsobarWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.checksum.update(data);
        self.total_len += data.len() as u64;
        self.buf.extend_from_slice(data);
        while self.buf.len() >= self.chunk_bytes {
            let rest = self.buf.split_off(self.chunk_bytes);
            let chunk = std::mem::replace(&mut self.buf, rest);
            self.flush_chunk(chunk)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Chunks are flushed on size boundaries; partial chunks wait
        // for finish() so chunk statistics stay sound.
        self.sink.flush()
    }
}

/// Streaming ISOBAR decompressor: reads a stream produced by
/// [`IsobarWriter`] and yields the original bytes through `Read`.
pub struct IsobarReader<R: Read> {
    source: R,
    /// Stream format version from the header (1 or 2).
    version: u8,
    /// Verify per-chunk checksums (version 2 frames) while decoding.
    verify: bool,
    width: usize,
    codec: Box<dyn Codec>,
    linearization: Linearization,
    /// Decoded bytes not yet handed to the caller.
    pending: Vec<u8>,
    pending_pos: usize,
    checksum: Adler32,
    produced: u64,
    /// Compressed bytes consumed from the source so far — the byte
    /// offset attached to decode errors.
    consumed: u64,
    done: bool,
    /// Working memory reused across chunk decodes.
    scratch: PipelineScratch,
    /// Telemetry accumulated across the stream's lifetime.
    recorder: Recorder,
    /// Chunk frames decoded so far — the chunk index on trace spans.
    chunks_read: u32,
}

impl<R: Read> IsobarReader<R> {
    /// Parse the stream header and prepare to decode, verifying
    /// embedded chunk checksums (the default).
    pub fn new(source: R) -> Result<Self, IsobarError> {
        Self::with_verify(source, true)
    }

    /// [`IsobarReader::new`] with an explicit checksum-verification
    /// knob. `verify: false` trades integrity detection for decode
    /// throughput; structural validation still happens either way.
    pub fn with_verify(mut source: R, verify: bool) -> Result<Self, IsobarError> {
        let mut header = [0u8; STREAM_HEADER_LEN];
        read_exact(&mut source, &mut header)?;
        if header[..4] != STREAM_MAGIC {
            return Err(IsobarError::Corrupt("bad stream magic"));
        }
        let version = header[4];
        if version != STREAM_VERSION && version != STREAM_LEGACY_VERSION {
            return Err(IsobarError::Corrupt("unsupported stream version"));
        }
        let width = header[5] as usize;
        if width == 0 || width > 64 {
            return Err(IsobarError::Corrupt("bad element width"));
        }
        let codec_id = CodecId::from_u8(header[6]).map_err(IsobarError::Codec)?;
        let level = level_from_u8(header[7]).ok_or(IsobarError::Corrupt("bad level byte"))?;
        let linearization =
            Linearization::from_u8(header[8]).ok_or(IsobarError::Corrupt("bad linearization"))?;
        let mut recorder = Recorder::new();
        recorder.add(Counter::StreamMetadataBytes, STREAM_HEADER_LEN as u64);
        Ok(IsobarReader {
            source,
            version,
            verify,
            width,
            codec: codec_for(codec_id, level),
            linearization,
            pending: Vec::new(),
            pending_pos: 0,
            checksum: Adler32::new(),
            produced: 0,
            consumed: STREAM_HEADER_LEN as u64,
            done: false,
            scratch: PipelineScratch::new(),
            recorder,
            chunks_read: 0,
        })
    }

    /// Snapshot of the telemetry recorded so far (header, chunk, and
    /// trailer accounting accumulate as the stream is consumed).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot()
    }

    /// Read the whole remaining stream into a buffer.
    pub fn read_to_vec(mut self) -> Result<Vec<u8>, IsobarError> {
        let mut out = Vec::new();
        Read::read_to_end(&mut self, &mut out).map_err(|e| {
            match e.get_ref().and_then(|r| r.downcast_ref::<IsobarError>()) {
                Some(inner) => inner.clone(),
                None => IsobarError::Truncated,
            }
        })?;
        Ok(out)
    }

    fn refill(&mut self) -> Result<(), IsobarError> {
        // Any refill failure is a rejection of corrupt wire input: tag
        // it with the byte offset of the frame that failed and count it.
        let frame_offset = self.consumed;
        self.refill_inner().map_err(|e| {
            self.recorder.incr(Counter::StreamCorruptRejected);
            if e.is_checksum_mismatch() {
                self.recorder.incr(Counter::ChecksumMismatches);
            }
            e.at(frame_offset)
        })
    }

    fn refill_inner(&mut self) -> Result<(), IsobarError> {
        debug_assert_eq!(self.pending_pos, self.pending.len());
        let mut marker = [0u8; 1];
        read_exact(&mut self.source, &mut marker)?;
        self.consumed += 1;
        match marker[0] {
            MARK_CHUNK => {
                let chunk_index = self.chunks_read;
                self.chunks_read = self.chunks_read.wrapping_add(1);
                let _span = trace::span(TraceTag::StreamChunkRead, chunk_index);
                // Chunk records carry their own lengths; read the fixed
                // part and validate it fully *before* allocating for or
                // reading the payloads — the two length fields are
                // untrusted and must not drive an allocation the stream
                // cannot back with real bytes.
                let header_len = chunk_header_len(self.version);
                let mut fixed = [0u8; crate::container::CHUNK_HEADER_LEN];
                let fixed = &mut fixed[..header_len];
                read_exact(&mut self.source, fixed)?;
                let record_offset = self.consumed;
                self.consumed += fixed.len() as u64;
                let header = ChunkHeader::validate(fixed, self.width, u32::MAX, self.version)?;
                let payload_len = (header.comp_len as u64)
                    .checked_add(header.incomp_len as u64)
                    .ok_or(IsobarError::Corrupt("chunk length overflow"))?;
                // Pre-size only up to a modest bound; a lying comp_len
                // then costs allocation proportional to the bytes the
                // source actually delivers, not the claimed length.
                let prealloc = (payload_len as usize).min(1 << 20);
                let mut record_bytes = Vec::with_capacity(header_len + prealloc);
                record_bytes.extend_from_slice(fixed);
                (&mut self.source)
                    .take(payload_len)
                    .read_to_end(&mut record_bytes)
                    .map_err(|_| IsobarError::Truncated)?;
                let got = (record_bytes.len() - fixed.len()) as u64;
                self.consumed += got;
                if got != payload_len {
                    return Err(IsobarError::Truncated);
                }
                let (record, _) = ChunkRecord::read_bounded(
                    &record_bytes,
                    self.width,
                    u32::MAX,
                    self.version,
                    self.verify,
                    record_offset,
                )?;
                // Decode into the fully-consumed pending buffer so its
                // capacity (and the scratch) carry across chunks.
                self.pending.clear();
                crate::pipeline::decode_chunk_record(
                    &record,
                    self.width,
                    chunk_index,
                    self.codec.as_ref(),
                    self.linearization,
                    &mut self.pending,
                    &mut self.scratch,
                    &mut self.recorder,
                )?;
                self.recorder.incr(Counter::StreamChunksRead);
                self.recorder
                    .add(Counter::StreamMetadataBytes, 1 + header_len as u64);
                self.checksum.update(&self.pending);
                self.produced += self.pending.len() as u64;
                self.pending_pos = 0;
                Ok(())
            }
            MARK_END => {
                let mut trailer = [0u8; 12];
                read_exact(&mut self.source, &mut trailer)?;
                self.consumed += trailer.len() as u64;
                let total = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
                let adler = u32::from_le_bytes(trailer[8..].try_into().expect("4 bytes"));
                if total != self.produced {
                    return Err(IsobarError::Corrupt("stream length mismatch"));
                }
                let actual = self.checksum.finish();
                if self.verify && adler != actual {
                    // The Adler-32 lives in the last 4 trailer bytes.
                    return Err(IsobarError::ChecksumMismatch {
                        offset: self.consumed - 4,
                        expected: u64::from(adler),
                        actual: u64::from(actual),
                    });
                }
                self.recorder
                    .add(Counter::StreamMetadataBytes, STREAM_TRAILER_LEN as u64);
                self.done = true;
                Ok(())
            }
            _ => Err(IsobarError::Corrupt("bad stream marker")),
        }
    }
}

fn read_exact<R: Read>(source: &mut R, buf: &mut [u8]) -> Result<(), IsobarError> {
    source.read_exact(buf).map_err(|_| IsobarError::Truncated)
}

impl<R: Read> Read for IsobarReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pending_pos == self.pending.len() {
            if self.done {
                return Ok(0);
            }
            self.refill().map_err(io_err)?;
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
    use crate::Preference;

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
        let stream = writer.finish().unwrap();

        let reader = IsobarReader::new(&stream[..]).unwrap();
        assert_eq!(reader.read_to_vec().unwrap(), data);
    }

    #[test]
    fn stream_compresses_like_the_batch_pipeline() {
        let data = demo_data(40_000);
        let mut writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        writer.write_all(&data).unwrap();
        let stream = writer.finish().unwrap();

        let batch = IsobarCompressor::new(test_options())
            .compress(&data, 8)
            .unwrap();
        // Same chunking, same solver work: sizes within a few percent.
        let diff = (stream.len() as f64 - batch.len() as f64).abs();
        let rel = diff / batch.len() as f64;
        assert!(
            rel < 0.05,
            "stream {} vs batch {}",
            stream.len(),
            batch.len()
        );
        assert!(stream.len() < data.len());
    }

    #[test]
    fn empty_stream_round_trips() {
        let writer = IsobarWriter::new(Vec::new(), 8, test_options()).unwrap();
        let stream = writer.finish().unwrap();
        let reader = IsobarReader::new(&stream[..]).unwrap();
        assert_eq!(reader.read_to_vec().unwrap(), Vec::<u8>::new());
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
        let stream = writer.finish().unwrap();
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
        let mut stream = writer.finish().unwrap();
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
        let stream = writer.finish().unwrap();
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
        let stream = writer.finish().unwrap();

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
