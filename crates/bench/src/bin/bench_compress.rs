//! `bench_compress` — compression-throughput experiment for the
//! parallel chunk-compression pipeline.
//!
//! Two measurements on the Nyx workload, both against the serial
//! `write_full` baseline:
//!
//! 1. **compress-only scaling** — raw pipeline MB/s at N workers with
//!    unthrottled async writes (shows CPU scaling; flat on a 1-core
//!    host);
//! 2. **overlap-async** — calibrated throttled writes (per-queue
//!    bandwidth set so one queue's write time ≈ 2× the measured
//!    compression time, the paper's I/O-bound regime). The serial
//!    baseline compresses then writes synchronously through one queue;
//!    the pipeline streams into an [`EventSet`] driving
//!    `n_write_queues` queues, so compression overlaps in-flight
//!    writes. This is the speedup mechanism of the paper's design and
//!    shows up even on a single core.
//!
//! On top of the file-level writes, the binary measures the **serial
//! compress-stage split** over one whole-field szlite stream per field
//! of the snapshot, from public calls only: the LZSS stage is the
//! lossless on/off delta of `compress_into`, Huffman emission is a
//! standalone `HuffmanEncoder::encode` over the emitted code stream,
//! and the fused predict + quantize kernel (table build and framing
//! included) is the remainder — the write-side mirror of
//! `bench_decompress`'s entropy split. Next to what LZSS costs it
//! records what LZSS returns: how many of the streams ended stored and
//! the bytes the stage saved over all of them.
//!
//! Writes machine-readable results to `BENCH_compress.json` (override
//! with `BENCH_OUT`), and asserts the pipelined files stay
//! byte-identical to serial output.
//!
//! ```text
//! cargo run -p bench --release --bin bench_compress
//! BENCH_SIDE=128 BENCH_WORKERS=1,2,4 cargo run -p bench --release --bin bench_compress
//! ```
//!
//! Knobs: `BENCH_SIDE` (nyx cube side, default 64), `BENCH_CHUNK`
//! (chunk side, must divide side, default 16), `BENCH_WORKERS`
//! (default `1,2,4,8`), `BENCH_REPS` (default 3), `BENCH_OUT`.

use h5lite::{
    compress_chunks, BufferPool, DatasetSpec, Dtype, EventSet, FilterRegistry, FilterSpec, H5File,
    SzFilterParams, SZLITE_FILTER_ID,
};
use pfsim::{SharedFile, Throttle};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{nyx, NyxParams};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "bench-compress-{}-{}.h5l",
        std::process::id(),
        name
    ))
}

/// Run `f` `reps` times, returning the fastest wall-clock seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Per-stage serial compress timings, summed over one whole-field
/// stream per field, and what the LZSS stage returned for its time.
#[derive(Default)]
struct StageBreakdown {
    streams: usize,
    n_points: usize,
    total_secs: f64,
    lzss_secs: f64,
    huffman_encode_secs: f64,
    kernel_secs: f64,
    /// Streams whose lossless stage ended in stored mode.
    lzss_streams_stored: usize,
    /// Bytes by which the lossless stage shrank the streams, over all
    /// of them (negative: the mode bytes of stored streams outweigh
    /// the savings).
    lzss_saved_bytes: i64,
}

/// Time the compress stages of one szlite stream per field, each
/// covering its whole field. Small fields are looped so every timed
/// sample covers a few million points — the smoke run at side 16 stays
/// noise-proof.
fn stage_breakdown(fields: &[workloads::Field], reps: usize) -> StageBreakdown {
    use szlite::huffman::{HuffmanDecoder, HuffmanEncoder};
    use szlite::stream::{get_varint, BitReader, BitWriter};

    let cfg = szlite::Config::rel(1e-3);
    let mut st = StageBreakdown::default();
    let mut scratch = szlite::Scratch::new();
    let mut out = Vec::new();
    for field in fields {
        let data = &field.data[..];
        let dims = szlite::Dims::from_slice(&field.dims).unwrap();
        let iters = (4_000_000 / data.len()).max(1);
        let mut timed = |cfg: &szlite::Config, out: &mut Vec<u8>| {
            best_of(reps, || {
                for _ in 0..iters {
                    szlite::compress_into(data, &dims, cfg, &mut scratch, out).unwrap();
                }
            }) / iters as f64
        };
        let total_secs = timed(&cfg, &mut out);
        let lossless_len = out.len();
        let plain_secs = timed(&cfg.clone().with_lossless(false), &mut out);
        // A kept token stream is smaller than the payload it replaces;
        // a stored one adds its mode byte.
        st.lzss_streams_stored += usize::from(lossless_len > out.len());
        st.lzss_saved_bytes += out.len() as i64 - lossless_len as i64;

        // `out` now holds the lossless-off stream, whose payload is the
        // Huffman table followed by the code stream: recover the
        // symbols and re-emit them through a standalone encoder.
        let info = szlite::stream_info(&out).unwrap();
        let payload = &out[info.payload_offset..info.payload_offset + info.payload_len];
        let mut pos = 0usize;
        let dec = HuffmanDecoder::deserialize(payload, &mut pos).unwrap();
        let n_codes = get_varint(payload, &mut pos).unwrap() as usize;
        let code_len = get_varint(payload, &mut pos).unwrap() as usize;
        let code_bytes = &payload[pos..pos + code_len];
        let mut codes = Vec::new();
        dec.decode_into(&mut BitReader::new(code_bytes), n_codes, &mut codes)
            .unwrap();
        let enc = HuffmanEncoder::from_symbols(&codes, 2 * info.radius as usize);
        let mut bits = Vec::new();
        let huffman_encode_secs = best_of(reps, || {
            for _ in 0..iters {
                let mut w = BitWriter::with_buffer(std::mem::take(&mut bits));
                enc.encode(&codes, &mut w);
                bits = w.finish();
            }
        }) / iters as f64;
        assert_eq!(bits, code_bytes, "standalone encode diverged from stream");

        st.streams += 1;
        st.n_points += data.len();
        st.total_secs += total_secs;
        st.lzss_secs += (total_secs - plain_secs).max(0.0);
        st.huffman_encode_secs += huffman_encode_secs;
        st.kernel_secs += (plain_secs - huffman_encode_secs).max(0.0);
    }
    println!(
        "serial stage split ({} streams): kernel {:.4} s  huffman encode {:.4} s ({:.0} Msym/s)  \
         lzss {:.4} s ({} stored, {} B saved)  total {:.4} s ({:.1} MB/s)",
        st.streams,
        st.kernel_secs,
        st.huffman_encode_secs,
        st.n_points as f64 / st.huffman_encode_secs / 1e6,
        st.lzss_secs,
        st.lzss_streams_stored,
        st.lzss_saved_bytes,
        st.total_secs,
        st.n_points as f64 * 4.0 / st.total_secs / 1e6,
    );
    st
}

struct Setup {
    bytes: Vec<u8>,
    dims: [u64; 3],
    chunk: [u64; 3],
    filters: Vec<FilterSpec>,
}

impl Setup {
    fn spec(&self, name: &str) -> DatasetSpec {
        let mut s = DatasetSpec::new(name, Dtype::F32, &self.dims).chunked(&self.chunk);
        for f in &self.filters {
            s = s.with_filter(f.clone());
        }
        s
    }
}

fn write_serial(setup: &Setup, path: &std::path::Path) {
    let f = H5File::create(path).unwrap();
    let id = f.create_dataset(setup.spec("d")).unwrap();
    f.write_full(id, &setup.bytes).unwrap();
    f.close().unwrap();
}

fn write_pipelined(setup: &Setup, path: &std::path::Path, workers: usize) {
    let f = H5File::create(path).unwrap();
    let id = f.create_dataset(setup.spec("d")).unwrap();
    let es = EventSet::new(1);
    f.write_full_pipelined(id, &setup.bytes, workers, &es, None)
        .unwrap();
    es.wait().unwrap();
    f.close().unwrap();
}

fn main() {
    let side = env_usize("BENCH_SIDE", 64);
    let chunk = env_usize("BENCH_CHUNK", 16);
    assert!(
        side.is_multiple_of(chunk),
        "BENCH_CHUNK ({chunk}) must divide BENCH_SIDE ({side})"
    );
    let reps = env_usize("BENCH_REPS", 3);
    let workers: Vec<usize> = std::env::var("BENCH_WORKERS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .collect();
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_compress.json".to_string());

    println!("generating nyx side={side} (chunk {chunk}³, reps {reps}) ...");
    let ds = nyx::snapshot(NyxParams::with_side(side));
    let field = ds.field("baryon_density").unwrap();
    let bytes: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let raw_bytes = bytes.len();
    let mb = raw_bytes as f64 / 1e6;
    let stages = stage_breakdown(&ds.fields, reps);
    let s = side as u64;
    let c = chunk as u64;
    let setup = Setup {
        bytes,
        dims: [s, s, s],
        chunk: [c, c, c],
        filters: vec![FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                // Value-range-relative 1e-3, SZ's standard mode for
                // density fields (an absolute bound would need manual
                // per-field calibration).
                absolute: false,
                bound: 1e-3,
                dims: vec![chunk, chunk, chunk],
            }
            .to_bytes(),
        }],
    };

    // ---- Experiment 1: compress-only scaling -------------------------
    let serial_path = tmp("serial");
    // Warm up caches / CPU clocks before anything is timed.
    write_serial(&setup, &serial_path);
    let serial_secs = best_of(reps, || write_serial(&setup, &serial_path));
    let serial_file = std::fs::read(&serial_path).unwrap();
    println!(
        "serial write_full        : {serial_secs:.3} s  {:.1} MB/s",
        mb / serial_secs
    );

    let mut byte_identical = true;
    let mut scaling = Vec::new();
    for &w in &workers {
        let path = tmp(&format!("pipe{w}"));
        let secs = best_of(reps, || write_pipelined(&setup, &path, w));
        byte_identical &= std::fs::read(&path).unwrap() == serial_file;
        let _ = std::fs::remove_file(&path);
        println!(
            "pipeline workers={w:<2}      : {secs:.3} s  {:.1} MB/s  ({:.2}x)",
            mb / secs,
            serial_secs / secs
        );
        scaling.push((w, secs));
    }
    let _ = std::fs::remove_file(&serial_path);
    assert!(byte_identical, "pipelined output diverged from serial");

    // ---- Experiment 2: overlap with throttled async writes -----------
    // Calibrate: measure pure compression time and total stored bytes.
    let registry = FilterRegistry::default();
    let pool = Arc::new(BufferPool::new());
    let mut stored_total = 0u64;
    let comp_secs = best_of(reps, || {
        stored_total = 0;
        compress_chunks(
            &registry,
            &setup.filters,
            &setup.bytes,
            &setup.dims,
            4,
            &setup.chunk,
            1,
            &pool,
            |_, stored, _| {
                stored_total += stored.len() as u64;
                pool.put(stored);
                Ok(())
            },
        )
        .unwrap();
    });
    // One queue takes ~3× the compression time to drain everything —
    // the I/O-bound regime the paper's overlap targets.
    let n_queues = 4usize;
    let queue_bw = (stored_total as f64 / (3.0 * comp_secs)).max(1.0);
    let throttles: Vec<Arc<Throttle>> = (0..n_queues)
        .map(|_| Arc::new(Throttle::new(queue_bw, Duration::ZERO)))
        .collect();
    println!(
        "\noverlap experiment: compression {comp_secs:.3} s, {} queues x {:.1} MB/s",
        n_queues,
        queue_bw / 1e6
    );

    // Serial baseline: compress, then write synchronously, one queue.
    let sync_path = tmp("sync");
    let serial_sync_secs = best_of(reps, || {
        let file = SharedFile::create(&sync_path).unwrap();
        compress_chunks(
            &registry,
            &setup.filters,
            &setup.bytes,
            &setup.dims,
            4,
            &setup.chunk,
            1,
            &pool,
            |_, stored, _| {
                throttles[0].acquire(stored.len() as u64);
                let off = file.reserve(stored.len() as u64);
                file.write_at(off, &stored).unwrap();
                pool.put(stored);
                Ok(())
            },
        )
        .unwrap();
    });
    let _ = std::fs::remove_file(&sync_path);
    println!("serial compress+sync-write: {serial_sync_secs:.3} s");

    let mut overlap = Vec::new();
    for &w in &workers {
        let path = tmp(&format!("ovl{w}"));
        let secs = best_of(reps, || {
            let file = SharedFile::create(&path).unwrap();
            let es = EventSet::new(n_queues);
            compress_chunks(
                &registry,
                &setup.filters,
                &setup.bytes,
                &setup.dims,
                4,
                &setup.chunk,
                w,
                &pool,
                |i, stored, _| {
                    let off = file.reserve(stored.len() as u64);
                    es.write_at_recycled(
                        &file,
                        off,
                        stored,
                        Some(Arc::clone(&throttles[i as usize % n_queues])),
                        Arc::clone(&pool),
                    );
                    Ok(())
                },
            )
            .unwrap();
            es.wait().unwrap();
        });
        let _ = std::fs::remove_file(&path);
        println!(
            "overlap  workers={w:<2}      : {secs:.3} s  ({:.2}x)",
            serial_sync_secs / secs
        );
        overlap.push((w, secs));
    }

    // ---- Machine-readable output -------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"workload\": \"nyx/baryon_density\",");
    let _ = writeln!(json, "  \"side\": {side},");
    let _ = writeln!(json, "  \"chunk\": {chunk},");
    let _ = writeln!(json, "  \"raw_bytes\": {raw_bytes},");
    let _ = writeln!(json, "  \"stored_bytes\": {stored_total},");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"byte_identical\": {byte_identical},");
    let _ = writeln!(json, "  \"compress_only\": {{");
    let _ = writeln!(json, "    \"serial_secs\": {serial_secs:.6},");
    let _ = writeln!(json, "    \"serial_mb_per_s\": {:.3},", mb / serial_secs);
    let _ = writeln!(json, "    \"pipeline\": [");
    for (i, &(w, secs)) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {w}, \"secs\": {secs:.6}, \"mb_per_s\": {:.3}, \"speedup\": {:.3}}}{}",
            mb / secs,
            serial_secs / secs,
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let st = &stages;
    let _ = writeln!(json, "  \"stages\": {{");
    let _ = writeln!(json, "    \"streams\": {},", st.streams);
    let _ = writeln!(json, "    \"n_points\": {},", st.n_points);
    let _ = writeln!(json, "    \"total_secs\": {:.6},", st.total_secs);
    let _ = writeln!(json, "    \"kernel_secs\": {:.6},", st.kernel_secs);
    let _ = writeln!(
        json,
        "    \"huffman_encode_secs\": {:.6},",
        st.huffman_encode_secs
    );
    let _ = writeln!(json, "    \"lzss_secs\": {:.6},", st.lzss_secs);
    let _ = writeln!(
        json,
        "    \"lzss_streams_stored\": {},",
        st.lzss_streams_stored
    );
    let _ = writeln!(json, "    \"lzss_saved_bytes\": {},", st.lzss_saved_bytes);
    let _ = writeln!(
        json,
        "    \"serial_mb_per_s\": {:.3},",
        st.n_points as f64 * 4.0 / st.total_secs / 1e6
    );
    let _ = writeln!(
        json,
        "    \"huffman_encode_msym_per_s\": {:.3}",
        st.n_points as f64 / st.huffman_encode_secs / 1e6
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"overlap_async\": {{");
    let _ = writeln!(json, "    \"n_write_queues\": {n_queues},");
    let _ = writeln!(
        json,
        "    \"queue_bandwidth_mb_per_s\": {:.3},",
        queue_bw / 1e6
    );
    let _ = writeln!(json, "    \"compress_secs\": {comp_secs:.6},");
    let _ = writeln!(json, "    \"serial_sync_secs\": {serial_sync_secs:.6},");
    let _ = writeln!(json, "    \"pipeline\": [");
    for (i, &(w, secs)) in overlap.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {w}, \"secs\": {secs:.6}, \"speedup\": {:.3}}}{}",
            serial_sync_secs / secs,
            if i + 1 < overlap.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
}
