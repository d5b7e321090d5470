//! Quickstart: compress a scientific field with an error bound, store
//! it in an h5lite container through the SZ filter pipeline, read it
//! back, and verify the bound.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use repro_suite::h5lite::{
    DatasetSpec, Dtype, EventSet, FilterSpec, H5File, H5Reader, SzFilterParams, SZLITE_FILTER_ID,
};
use repro_suite::szlite::{compress_with_stats, decompress, stats, Config, Dims};
use repro_suite::workloads::{nyx, NyxParams};

fn main() {
    // 1. Generate a Nyx-like temperature field (64^3).
    let side = 64;
    let field = nyx::single_field(NyxParams::with_side(side), "temperature");
    let dims = Dims::d3(side, side, side);
    println!(
        "field: {} ({} points, {} bytes raw)",
        field.name,
        field.len(),
        field.raw_bytes()
    );

    // 2. Compress with a value-range-relative bound of 1e-3.
    let cfg = Config::rel(1e-3);
    let (stream, st) = compress_with_stats(&field.data, &dims, &cfg).unwrap();
    println!(
        "compressed: {} bytes, ratio {:.1}x, bit-rate {:.2} bits/value, eb {:.3e}",
        st.compressed_bytes,
        st.ratio(),
        st.bit_rate(),
        st.eb
    );

    // 3. Verify the point-wise error bound.
    let (restored, _) = decompress(&stream).unwrap();
    let max_err = stats::max_abs_err(&field.data, &restored);
    let psnr = stats::psnr(&field.data, &restored);
    println!(
        "max error {max_err:.3e} <= eb {:.3e}; PSNR {psnr:.1} dB",
        st.eb
    );
    assert!(max_err <= st.eb);

    // 4. Store through the HDF5-like container with the SZ filter.
    let path = std::env::temp_dir().join("quickstart.h5l");
    let file = H5File::create(&path).unwrap();
    let params = SzFilterParams {
        absolute: true,
        bound: st.eb,
        dims: vec![side, side, side],
    };
    let id = file
        .create_dataset(
            DatasetSpec::new(
                "fields/temperature",
                Dtype::F32,
                &[(side * side * side) as u64],
            )
            .chunked(&[(side * side * side) as u64])
            .with_filter(FilterSpec {
                id: SZLITE_FILTER_ID,
                params: params.to_bytes(),
            }),
        )
        .unwrap();
    let bytes: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    // The parallel compression pipeline: one compression worker per
    // core streaming into one async write thread; output is
    // byte-identical at any worker count.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let events = EventSet::new(1);
    file.write_full_pipelined(id, &bytes, workers, &events, None)
        .unwrap();
    events.wait().unwrap();
    file.close().unwrap();

    // 5. Read back through the inverse filter pipeline.
    let reader = H5Reader::open(&path).unwrap();
    let meta = reader.meta("fields/temperature").unwrap();
    println!(
        "file: {} stored / {} raw bytes ({:.1}x in-container)",
        meta.stored_bytes(),
        meta.raw_bytes(),
        meta.raw_bytes() as f64 / meta.stored_bytes() as f64
    );
    let from_file = reader.read_f32("fields/temperature").unwrap();
    assert!(stats::max_abs_err(&field.data, &from_file) <= st.eb);
    println!("read-back verified within the error bound: OK");
    std::fs::remove_file(&path).ok();
}
