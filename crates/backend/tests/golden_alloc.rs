//! The golden oracle programs its ROM tables once, when a [`GoldenDct`] is
//! built: a warm `transform` must allocate nothing, for every mapping.
//!
//! Lives in its own integration-test binary, with a single test, because
//! the counting `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsra_backend::{DctMapping, GoldenDct};
use dsra_dct::{DaParams, DctImpl};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_golden_transform_allocates_nothing() {
    let blocks: Vec<[i64; 8]> = (0..16)
        .map(|b| std::array::from_fn(|i| ((b * 37 + i as i64 * 101) % 511) - 255))
        .collect();
    for params in [DaParams::precise(), DaParams::paper()] {
        for mapping in DctMapping::ALL {
            let golden = GoldenDct::new(mapping, params).expect("golden model");
            golden.transform(&blocks[0]).expect("warm transform");
            let mut out = [0.0; 8];
            let before = BYTES.load(Ordering::Relaxed);
            for x in &blocks {
                let y = golden.transform(x).expect("transform");
                out.iter_mut().zip(y).for_each(|(o, v)| *o += v);
            }
            let allocated = BYTES.load(Ordering::Relaxed) - before;
            assert_eq!(
                allocated,
                0,
                "{} under {params:?}: a warm transform allocated {allocated} bytes",
                mapping.name()
            );
            assert!(out.iter().all(|v| v.is_finite()));
        }
    }
}
