//! The parser's allocation budget. A counting global allocator tallies
//! the allocations and reallocations the calling thread makes while
//! `parse_program` runs. The counts are deterministic: a parse runs on
//! one thread, and no capacity it picks depends on hash keys.

use nadroid::corpus::{generate, spec_for, table1_rows};
use nadroid::ir::{parse_program, print_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// The system allocator, counting every allocation and reallocation made
/// on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // While a thread exits its counter may be gone already; nothing is
    // measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The most allocations one parse of each printed Table 1 app may make
/// together. The parser made 25,742 when this was pinned, and 46,639
/// with 32-byte tokens and one vector per block, call and class.
const PASS_BUDGET: u64 = 27_000;

#[test]
fn a_pass_over_the_table1_apps_stays_within_its_allocation_budget() {
    let texts: Vec<String> = table1_rows()
        .iter()
        .map(|row| print_program(&generate(&spec_for(row)).program))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    assert_eq!(bytes, 825_723, "the budget is pinned for these texts");
    let (n, ()) = allocations(|| {
        for text in &texts {
            drop(parse_program(text).expect("printed apps parse"));
        }
    });
    assert!(
        n <= PASS_BUDGET,
        "one pass allocated {n} times (budget {PASS_BUDGET})"
    );
}

/// An app whose one method is `n` lines of `tK = null`.
fn nulls(n: usize) -> String {
    let mut src = String::from("app A\nclass C {\n  fn f {\n");
    for k in 1..=n {
        let _ = writeln!(src, "    t{k} = null");
    }
    src.push_str("  }\n}\n");
    src
}

/// A statement allocates nothing of its own: twice the statements cost
/// only the few extra reallocations of the vectors that grow with them.
#[test]
fn statements_allocate_nothing_of_their_own() {
    let (small, large) = (nulls(10_000), nulls(20_000));
    let (at_10k, _) = allocations(|| parse_program(&small).expect("parses"));
    let (at_20k, _) = allocations(|| parse_program(&large).expect("parses"));
    assert!(
        at_20k <= at_10k + 24,
        "10,000 more statements cost {} more allocations ({at_10k} -> {at_20k})",
        at_20k.saturating_sub(at_10k)
    );
}
