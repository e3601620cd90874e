//! The wire allocates in proportion to the bytes that really move.
//!
//! A frame header is a promise, not a payload: reading one that announces
//! `MAX_FRAME_LEN` bytes and then ends must not reserve those bytes first.
//! And a client that has sent a circuit once encodes the next request for
//! it into the buffer it kept, without cloning the circuit or building a
//! frame per request. A counting global allocator, counted on the calling
//! thread, checks both.

use qtn_circuit::RqcConfig;
use qtnsim_serve::protocol::read_frame_or_eof;
use qtnsim_serve::{Client, ProtocolError, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, with the allocations and bytes it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (calls, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes)
}

#[test]
fn a_header_alone_does_not_reserve_its_announced_payload() {
    let mut frame = MAX_FRAME_LEN.to_le_bytes().to_vec();
    frame.push(1);
    let (read, _, bytes) = counted(|| read_frame_or_eof(&mut &frame[..]));
    assert!(
        matches!(&read, Err(ProtocolError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{read:?}"
    );
    assert!(bytes < 1 << 20, "a bare {MAX_FRAME_LEN}-byte header allocated {bytes} bytes");
}

#[test]
fn a_warm_client_send_allocates_a_constant_number_of_times() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let drain = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        std::io::copy(&mut stream, &mut std::io::sink()).expect("drain")
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut warm = Vec::new();
    for (rows, cols, cycles) in [(3, 4, 10), (4, 5, 12)] {
        let circuit = RqcConfig::small(rows, cols, cycles, 5).build();
        let bits = vec![1u8; circuit.num_qubits()];
        // The first send of a larger frame grows the connection's buffer.
        client.send_request(&circuit, &[&bits]).expect("send");
        let sends: Vec<usize> = (0..3)
            .map(|_| counted(|| client.send_request(&circuit, &[&bits]).expect("send")).1)
            .collect();
        assert!(sends.iter().all(|&n| n == sends[0]), "{rows}x{cols}x{cycles}: {sends:?}");
        warm.push(sends[0]);
    }
    assert_eq!(warm[0], warm[1], "allocations per warm send must not grow with the circuit");
    assert!(warm[0] <= 2, "a warm send allocated {} times", warm[0]);
    drop(client);
    drain.join().expect("drain thread");
}
