//! Collector correctness: scavenging, promotion, write barriers, entry
//! tables, native pruning, and a property test over random object graphs.

use proptest::prelude::*;
use sting_areas::{Gc, Heap, HeapConfig, ObjKind, Space, Val, Word};
use sting_value::Value;

fn small_heap() -> Heap {
    Heap::new(HeapConfig {
        young_words: 256,
        old_trigger_words: 4096,
    })
}

fn root_gc(roots: &[Word], i: usize) -> Gc {
    Gc::from_word(roots[i]).expect("root is a reference")
}

#[test]
fn simple_alloc_and_access() {
    let mut heap = Heap::default();
    let mut roots: Vec<Word> = Vec::new();
    let p = heap.cons(Val::Int(10), Val::Nil, &mut roots);
    assert_eq!(heap.kind(p), ObjKind::Pair);
    assert_eq!(heap.car(p), Val::Int(10));
    assert_eq!(heap.cdr(p), Val::Nil);
    let v = heap.make_vector(5, Val::Bool(true), &mut roots);
    assert_eq!(heap.len(v), 5);
    assert_eq!(heap.field(v, 4), Val::Bool(true));
    let s = heap.make_string("hello", &mut roots);
    assert_eq!(heap.string_value(s), "hello");
    let c = heap.make_cell(Val::Char('q'), &mut roots);
    assert_eq!(heap.field(c, 0), Val::Char('q'));
}

#[test]
fn floats_are_boxed_transparently() {
    let mut heap = Heap::default();
    let mut roots: Vec<Word> = Vec::new();
    let p = heap.cons(Val::Float(2.5), Val::Float(-0.5), &mut roots);
    assert_eq!(heap.car(p), Val::Float(2.5));
    assert_eq!(heap.cdr(p), Val::Float(-0.5));
}

#[test]
fn survivors_move_and_roots_update() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let p = heap.cons(Val::Int(1), Val::Int(2), &mut roots);
    roots.push(p.word());
    // Allocate garbage until several collections happen.
    for i in 0..10_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    assert!(heap.stats().minor_collections > 0);
    let p = root_gc(&roots, 0);
    assert_eq!(heap.car(p), Val::Int(1));
    assert_eq!(heap.cdr(p), Val::Int(2));
}

#[test]
fn unrooted_objects_die() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    for i in 0..1000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    heap.collect_minor(&mut roots);
    heap.collect_major(&mut roots);
    assert_eq!(heap.young_used(), 0);
    assert_eq!(heap.old_used(), 0, "no survivors without roots");
}

#[test]
fn long_lived_objects_promote() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let p = heap.cons(Val::Int(7), Val::Nil, &mut roots);
    roots.push(p.word());
    // Enough churn for PROMOTE_AGE scavenges.
    for i in 0..5_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    let p = root_gc(&roots, 0);
    assert_eq!(p.space(), Space::Old, "survivor was promoted");
    assert_eq!(heap.car(p), Val::Int(7));
    assert!(heap.stats().promotions > 0);
}

#[test]
fn write_barrier_keeps_young_objects_alive() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    // Promote a vector.
    let v = heap.make_vector(4, Val::Nil, &mut roots);
    roots.push(v.word());
    for i in 0..5_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    let v = root_gc(&roots, 0);
    assert_eq!(v.space(), Space::Old);
    // Store a fresh young pair into the old vector; the pair is NOT in
    // the explicit root set — only the remembered set keeps it alive.
    let young = heap.cons(Val::Int(42), Val::Int(43), &mut roots);
    {
        let mut scratch = vec![v.word(), young.word()];
        let v2 = Gc::from_word(scratch[0]).unwrap();
        let y2 = Gc::from_word(scratch[1]).unwrap();
        heap.set_field(v2, 0, Val::Obj(y2), &mut scratch);
        roots[0] = scratch[0];
    }
    let v = root_gc(&roots, 0);
    heap.collect_minor(&mut roots);
    let v = {
        let _ = v;
        root_gc(&roots, 0)
    };
    match heap.field(v, 0) {
        Val::Obj(p) => {
            assert_eq!(heap.car(p), Val::Int(42));
            assert_eq!(heap.cdr(p), Val::Int(43));
        }
        other => panic!("barrier lost the young object: {other:?}"),
    }
}

#[test]
fn deep_list_survives_collections() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    // Build (0 1 2 ... 999) keeping only the head rooted.
    let mut head = Val::Nil;
    for i in (0..1000).rev() {
        let gc = match head {
            Val::Obj(gc) => {
                roots.clear();
                roots.push(gc.word());
                heap.cons(Val::Int(i), Val::Obj(root_gc(&roots, 0)), &mut roots)
            }
            _ => heap.cons(Val::Int(i), head, &mut roots),
        };
        head = Val::Obj(gc);
        roots.clear();
        roots.push(gc.word());
    }
    heap.collect_major(&mut roots);
    // Walk the list.
    let mut cur = Val::Obj(root_gc(&roots, 0));
    let mut expect = 0i64;
    while let Val::Obj(gc) = cur {
        assert_eq!(heap.car(gc), Val::Int(expect));
        expect += 1;
        cur = heap.cdr(gc);
    }
    assert_eq!(expect, 1000);
    assert_eq!(cur, Val::Nil);
}

#[test]
fn shared_structure_stays_shared() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let shared = heap.cons(Val::Int(9), Val::Nil, &mut roots);
    roots.push(shared.word());
    let a = heap.cons(Val::Obj(root_gc(&roots, 0)), Val::Nil, &mut roots);
    roots.push(a.word());
    let b = heap.cons(Val::Obj(root_gc(&roots, 0)), Val::Nil, &mut roots);
    roots.push(b.word());
    heap.collect_major(&mut roots);
    let (a, b) = (root_gc(&roots, 1), root_gc(&roots, 2));
    let (Val::Obj(sa), Val::Obj(sb)) = (heap.car(a), heap.car(b)) else {
        panic!("cars are refs");
    };
    assert_eq!(sa, sb, "sharing preserved, not duplicated");
    // Mutation through one path is visible through the other.
    heap.set_car(sa, Val::Int(100), &mut roots);
    assert_eq!(heap.car(sb), Val::Int(100));
}

#[test]
fn cycles_survive() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let a = heap.cons(Val::Int(1), Val::Nil, &mut roots);
    roots.push(a.word());
    let b = heap.cons(Val::Int(2), Val::Obj(root_gc(&roots, 0)), &mut roots);
    roots.push(b.word());
    // Close the cycle: a.cdr = b.
    let (a, b) = (root_gc(&roots, 0), root_gc(&roots, 1));
    heap.set_cdr(a, Val::Obj(b), &mut roots);
    heap.collect_major(&mut roots);
    let a = root_gc(&roots, 0);
    let Val::Obj(b2) = heap.cdr(a) else { panic!() };
    let Val::Obj(a2) = heap.cdr(b2) else { panic!() };
    assert_eq!(heap.car(a2), Val::Int(1));
    assert_eq!(heap.car(b2), Val::Int(2));
    assert_eq!(a2, a);
}

#[test]
fn entry_table_survives_moves() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let obj = heap.cons(Val::Int(55), Val::Nil, &mut roots);
    let id = heap.export(obj);
    // No explicit root: only the entry table keeps it alive.
    for i in 0..5_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    heap.collect_major(&mut roots);
    let obj = heap.resolve(id);
    assert_eq!(heap.car(obj), Val::Int(55));
    assert_eq!(heap.exported(), 1);
    heap.release(id);
    assert_eq!(heap.exported(), 0);
    heap.collect_major(&mut roots);
    assert_eq!(heap.old_used(), 0, "released entry lets the object die");
}

#[test]
fn natives_pin_and_prune() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let nv = heap.intern_native(Value::from("pinned"));
    let Val::Native(idx) = nv else { panic!() };
    // Reachable through a rooted pair.
    let p = heap.cons(nv, Val::Nil, &mut roots);
    roots.push(p.word());
    heap.collect_major(&mut roots);
    assert_eq!(heap.native(idx).as_str(), Some("pinned"));
    // Drop the pair; major collection prunes the native slot.
    roots.clear();
    let unreferenced = heap.intern_native(Value::from("garbage"));
    let Val::Native(gidx) = unreferenced else {
        panic!()
    };
    heap.collect_major(&mut roots);
    let _ = gidx;
    // Slot is recycled for the next intern.
    let again = heap.intern_native(Value::from("fresh"));
    let Val::Native(fidx) = again else { panic!() };
    assert_eq!(heap.native(fidx).as_str(), Some("fresh"));
}

#[test]
fn stats_accumulate() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    for i in 0..2_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    let s = heap.stats();
    assert!(s.words_allocated >= 6_000);
    assert!(s.minor_collections >= 1);
}

proptest! {
    /// Random graphs of pairs/vectors survive a random collection schedule
    /// with contents intact.
    #[test]
    fn random_graphs_survive(ops in prop::collection::vec(0u8..6, 1..120), seed in 0i64..1000) {
        let mut heap = small_heap();
        let mut roots: Vec<Word> = Vec::new();
        let mut expect: Vec<(usize, i64)> = Vec::new(); // (root index, car int)
        let mut counter = seed;
        for op in ops {
            match op {
                // New rooted pair.
                0..=2 => {
                    counter += 1;
                    let gc = heap.cons(Val::Int(counter), Val::Nil, &mut roots);
                    expect.push((roots.len(), counter));
                    roots.push(gc.word());
                }
                // Garbage.
                3 => {
                    for i in 0..200 {
                        let _ = heap.cons(Val::Int(i), Val::Int(i), &mut roots);
                    }
                }
                // Minor collection.
                4 => heap.collect_minor(&mut roots),
                // Major collection.
                _ => heap.collect_major(&mut roots),
            }
        }
        heap.collect_major(&mut roots);
        for (idx, want) in expect {
            let gc = root_gc(&roots, idx);
            prop_assert_eq!(heap.car(gc), Val::Int(want));
            prop_assert_eq!(heap.cdr(gc), Val::Nil);
        }
    }
}

#[test]
fn strings_and_vectors_survive_collections() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let s = heap.make_string("hello world", &mut roots);
    roots.push(s.word());
    let v = heap.make_vector(3, Val::Char('x'), &mut roots);
    roots.push(v.word());
    for i in 0..5_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    heap.collect_major(&mut roots);
    let s = root_gc(&roots, 0);
    let v = root_gc(&roots, 1);
    assert_eq!(heap.string_value(s), "hello world");
    assert_eq!(heap.len(v), 3);
    assert_eq!(heap.field(v, 2), Val::Char('x'));
}

#[test]
fn vector_of_floats_boxes_correctly_under_pressure() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    // Mixed vector with floats interleaved with refs: exercises the
    // box_floats rooting path.
    let pair = heap.cons(Val::Int(1), Val::Nil, &mut roots);
    roots.push(pair.word());
    let mut items = vec![
        Val::Float(1.5),
        Val::Obj(root_gc(&roots, 0)),
        Val::Float(2.5),
        Val::Int(7),
    ];
    let v = heap.make_vector_from(&mut items, &mut roots);
    roots.push(v.word());
    for i in 0..3_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    let v = root_gc(&roots, 1);
    assert_eq!(heap.field(v, 0), Val::Float(1.5));
    assert_eq!(heap.field(v, 2), Val::Float(2.5));
    assert_eq!(heap.field(v, 3), Val::Int(7));
    match heap.field(v, 1) {
        Val::Obj(p) => assert_eq!(heap.car(p), Val::Int(1)),
        other => panic!("lost the ref: {other:?}"),
    }
}

#[test]
fn closures_survive_and_keep_captures() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let env = heap.cons(Val::Int(40), Val::Int(2), &mut roots);
    roots.push(env.word());
    let mut captures = [Val::Obj(env)];
    let clo = heap.make_closure(17, &mut captures, &mut roots);
    roots.push(clo.word());
    for i in 0..5_000 {
        let _ = heap.cons(Val::Int(i), Val::Nil, &mut roots);
    }
    heap.collect_major(&mut roots);
    let clo = root_gc(&roots, 1);
    assert_eq!(heap.kind(clo), ObjKind::Closure);
    assert_eq!(heap.closure_code(clo), 17);
    assert_eq!(heap.closure_captures(clo), 1);
    match heap.closure_capture(clo, 0) {
        Val::Obj(env) => {
            assert_eq!(heap.car(env), Val::Int(40));
            assert_eq!(heap.cdr(env), Val::Int(2));
        }
        other => panic!("capture lost: {other:?}"),
    }
}

#[test]
fn frames_are_a_distinct_kind() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    let mut slots = [Val::Nil, Val::Int(1), Val::Int(2)];
    let f = heap.make_frame_from(&mut slots, &mut roots);
    assert_eq!(heap.kind(f), ObjKind::Frame);
    assert_eq!(heap.len(f), 3);
    roots.push(f.word());
    heap.collect_major(&mut roots);
    let f = root_gc(&roots, 0);
    assert_eq!(heap.kind(f), ObjKind::Frame);
    assert_eq!(heap.field(f, 1), Val::Int(1));
}

#[test]
fn a_fixed_frame_keeps_its_kind_across_collections() {
    let mut heap = small_heap();
    let mut roots: Vec<Word> = Vec::new();
    heap.reserve(Heap::object_words(2), &mut roots);
    let f = heap.make_frame_reserved(false, Val::Nil, &[Val::Int(7)]);
    assert_eq!(heap.kind(f), ObjKind::FixedFrame);
    roots.push(f.word());
    heap.collect_minor(&mut roots);
    heap.collect_major(&mut roots);
    let f = root_gc(&roots, 0);
    assert_eq!(heap.kind(f), ObjKind::FixedFrame);
    assert_eq!(heap.field(f, 1), Val::Int(7));
}

/// A two-cell list marked as imported and recorded as a copy of `v`.
fn imported_list(heap: &mut Heap, roots: &mut Vec<Word>, v: &Value) -> (Gc, Gc) {
    let epoch = heap.import_epoch();
    let tail = heap.cons(Val::Int(2), Val::Nil, roots);
    heap.mark_imported(tail);
    roots.push(tail.word());
    let head = heap.cons(Val::Int(1), Val::Obj(tail), roots);
    heap.mark_imported(head);
    let tail = Gc::from_word(roots.pop().unwrap()).unwrap();
    heap.record_import(epoch, head, v.clone());
    (head, tail)
}

#[test]
fn an_import_record_stands_until_a_store_into_an_imported_object() {
    let mut heap = Heap::default();
    let mut roots: Vec<Word> = Vec::new();
    let v = Value::list([Value::from(1), Value::from(2)]);
    let (head, tail) = imported_list(&mut heap, &mut roots, &v);
    assert_eq!(heap.imported_value(head), Some(&v));
    assert_eq!(heap.imported_value(tail), None, "only the root is recorded");
    // A store into an object the import did not make keeps the record.
    let other = heap.cons(Val::Int(0), Val::Nil, &mut roots);
    heap.set_car(other, Val::Int(9), &mut roots);
    assert_eq!(heap.imported_value(head), Some(&v));
    // A store into any imported cell drops it.
    heap.set_car(tail, Val::Int(3), &mut roots);
    assert_eq!(heap.imported_value(head), None);
}

#[test]
fn a_collection_drops_import_records_and_voids_an_import_across_it() {
    let mut heap = Heap::default();
    let mut roots: Vec<Word> = Vec::new();
    let v = Value::list([Value::from(1), Value::from(2)]);
    let (head, _) = imported_list(&mut heap, &mut roots, &v);
    roots.push(head.word());
    heap.collect_minor(&mut roots);
    let head = root_gc(&roots, 0);
    assert_eq!(heap.imported_value(head), None);
    // An import that a collection interrupted records nothing.
    let epoch = heap.import_epoch();
    heap.collect_minor(&mut roots);
    let head = root_gc(&roots, 0);
    heap.record_import(epoch, head, v.clone());
    assert_eq!(heap.imported_value(head), None);
}

#[test]
fn a_native_handle_is_pinned_once_and_keeps_its_key() {
    let mut heap = small_heap();
    let handle = Value::native("probe", std::sync::Arc::new(5u32));
    let first = heap.intern_native_keyed(handle.clone(), 3);
    assert_eq!(heap.native_slot_of(&handle), Some(first));
    for i in 0..40u32 {
        heap.intern_native(Value::native("filler", std::sync::Arc::new(i)));
    }
    assert_eq!(heap.intern_native(handle.clone()), first);
    let Val::Native(slot) = first else { panic!() };
    assert_eq!(heap.native_key(slot), 3);
    assert_eq!(heap.native_slots(), 41);
}
