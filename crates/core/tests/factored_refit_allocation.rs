//! A refit past the dense ceiling never allocates the dense joint.
//!
//! The binary's global allocator records the largest single allocation.
//! A cold and a warm order-2 acquisition over 21 binary attributes
//! (2^21 cells, past the default ceiling of 10^6) must never request a
//! block as large as one `f64` per cell: counting, scoring, solving and the
//! final normalisation all stay on observed cells and factor tables.

use pka_core::{Acquisition, AcquisitionConfig};
use pka_datagen::{sampler::seeded_rng, WideExperiment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest block ever requested.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each caller's guarantees pass straight through; the only addition is a
// relaxed `fetch_max` on a statistic that publishes no other data.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn factored_refits_never_allocate_the_joint() {
    let experiment = WideExperiment::generate(21, 2, 4, 5.0, &mut seeded_rng(7));
    let mut rng = seeded_rng(8);
    let mut table = experiment.sample_table(800, &mut rng);
    let cells = table.cell_count();
    let config = AcquisitionConfig::new().with_max_order(2);
    assert!(cells > config.dense_ceiling, "the schema must be past the dense ceiling");
    let joint_bytes = cells * std::mem::size_of::<f64>();
    let acquisition = Acquisition::new(config);

    LARGEST.store(0, Ordering::Relaxed);
    let cold = acquisition.run(&table).expect("cold run");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < joint_bytes, "cold run allocated {largest} bytes (joint: {joint_bytes})");
    assert!(!cold.knowledge_base.significant_constraints().is_empty(), "nothing was acquired");

    table.merge(&experiment.sample_table(200, &mut rng)).expect("same schema");
    LARGEST.store(0, Ordering::Relaxed);
    let warm = acquisition.run_warm_started(&table, &cold.knowledge_base).expect("warm run");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < joint_bytes, "warm run allocated {largest} bytes (joint: {joint_bytes})");
    assert_eq!(warm.knowledge_base.sample_size(), table.total());
    assert!(warm.trace.total_evaluations() > 0, "the warm run scored no candidates");
}
