//! `gemm_batched_aliased` reads its `A` windows in place: one call
//! allocates only per-descriptor bookkeeping, never a copy of an operand
//! window.  A counting global allocator measures the bytes the calling
//! thread allocates during one call on a sequential device.

use hodlr_batch::{gemm_batched_aliased, Device, DeviceBuffer, GemmDesc, Stream};
use hodlr_la::Op;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

#[test]
fn aliased_update_allocates_only_descriptor_bookkeeping() {
    let dev = Device::sequential();
    let ldy = 1 << 15;
    let (w, batch) = (4, 8);
    // C: columns 0..batch, one per descriptor (contiguous windows, so no
    // row-block scratch).  A: `w` full-height columns starting at column
    // `batch`, shared by every descriptor.
    let descs: Vec<GemmDesc<f64>> = (0..batch)
        .map(|j| GemmDesc {
            m: ldy,
            n: 1,
            k: w,
            alpha: -1.0,
            beta: 1.0,
            op_a: Op::None,
            op_b: Op::None,
            a_offset: batch * ldy,
            lda: ldy,
            b_offset: j * w,
            ldb: w,
            c_offset: j * ldy,
            ldc: ldy,
        })
        .collect();
    let mut ac_buf = DeviceBuffer::from_host(&dev, &vec![1.0f64; (batch + w) * ldy]);
    let b_buf = DeviceBuffer::from_host(&dev, &vec![0.5f64; batch * w]);

    let before = allocated();
    gemm_batched_aliased(&dev, Stream::default(), &descs, &mut ac_buf, &b_buf);
    let bytes = allocated() - before;

    // A copy of even one A window would be `w * ldy * 8` = 1 MiB.
    let bound = 256 * descs.len();
    assert!(
        bytes <= bound,
        "one aliased call allocated {bytes} bytes (bound {bound})"
    );
    let host = ac_buf.download();
    assert!(host[..batch * ldy]
        .iter()
        .all(|&v| v == 1.0 - 0.5 * w as f64));
}
