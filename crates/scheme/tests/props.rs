//! Property tests for the language front end and arithmetic semantics.

use proptest::prelude::*;
use sting_core::VmBuilder;
use sting_scheme::reader::{read_all, read_one};
use sting_scheme::{Interp, Sexp};

fn arb_sexp() -> impl Strategy<Value = Sexp> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(|i| Sexp::Int(i64::from(i))),
        any::<bool>().prop_map(Sexp::Bool),
        "[a-z][a-z0-9?!*-]{0,8}".prop_map(|s| Sexp::sym(&s)),
        "[ -~&&[^\"\\\\]]{0,10}".prop_map(Sexp::Str),
        prop_oneof![Just('a'), Just('Z'), Just('0'), Just(' '), Just('\n')].prop_map(Sexp::Char),
    ];
    leaf.prop_recursive(4, 24, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Sexp::list),
            prop::collection::vec(inner, 0..4).prop_map(Sexp::Vector),
        ]
    })
}

proptest! {
    /// print ∘ read = identity on the datum level.
    #[test]
    fn reader_printer_roundtrip(s in arb_sexp()) {
        let text = s.to_string();
        let back = read_one(&text).expect("printed datum reads back");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn read_all_counts_top_level_forms(items in prop::collection::vec(arb_sexp(), 0..5)) {
        let text: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let joined = text.join(" \n ");
        let back = read_all(&joined).expect("reads back");
        prop_assert_eq!(back.len(), items.len());
    }
}

#[test]
fn quoted_random_data_evaluates_to_itself() {
    // Deterministic mini-fuzz through the whole pipeline: quote a datum,
    // evaluate it, print it, compare with the source datum's printing.
    let vm = VmBuilder::new().vps(1).build();
    let interp = Interp::new(vm.clone());
    let cases = [
        "(1 2 (3 #(4 \"five\") b) . c)",
        "#(#t #f #\\a (nested list))",
        "(quote still-quoted)",
        "()",
        "(((((deep)))))",
    ];
    for c in cases {
        let src = format!("'{c}");
        let v = interp.eval(&src).unwrap();
        let reread = read_one(c).unwrap();
        assert_eq!(v.to_string(), reread.to_string(), "case {c}");
    }
    vm.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scheme integer arithmetic agrees with Rust's (within fixnum range).
    #[test]
    fn arithmetic_agrees_with_rust(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let vm = VmBuilder::new().vps(1).build();
        let interp = Interp::bare(vm.clone());
        let v = interp.eval(&format!("(+ (* {a} {b}) (- {a} {b}))")).unwrap();
        prop_assert_eq!(v.as_int(), Some(a * b + (a - b)));
        if b != 0 {
            let q = interp.eval(&format!("(quotient {a} {b})")).unwrap();
            prop_assert_eq!(q.as_int(), Some(a / b));
            let r = interp.eval(&format!("(remainder {a} {b})")).unwrap();
            prop_assert_eq!(r.as_int(), Some(a % b));
            let m = interp.eval(&format!("(modulo {a} {b})")).unwrap();
            prop_assert_eq!(m.as_int(), Some(a.rem_euclid(b.abs()) + if b < 0 && a.rem_euclid(b.abs()) != 0 { b } else { 0 }));
        }
        vm.shutdown();
    }

    /// reverse ∘ reverse = identity, end to end through the interpreter.
    #[test]
    fn reverse_involution(xs in prop::collection::vec(-100i64..100, 0..12)) {
        let vm = VmBuilder::new().vps(1).build();
        let interp = Interp::bare(vm.clone());
        let lst = xs.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
        let v = interp.eval(&format!("(reverse (reverse '({lst})))")).unwrap();
        let back: Vec<i64> = v.list_iter().map(|x| x.as_int().unwrap()).collect();
        prop_assert_eq!(back, xs);
        vm.shutdown();
    }
}

/// A fixnum near either end of the range, or near zero.
fn edge_fixnum() -> impl Strategy<Value = i64> {
    use sting_areas::{FIXNUM_MAX, FIXNUM_MIN};
    prop_oneof![
        FIXNUM_MIN..FIXNUM_MIN + 64,
        FIXNUM_MAX - 64..=FIXNUM_MAX,
        -64i64..64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A call the machine runs inline, `(op a b)`, answers as the
    /// primitive table does through `apply`, overflow past the fixnum
    /// range included.
    #[test]
    fn inline_primitives_agree_with_the_table(a in edge_fixnum(), b in edge_fixnum()) {
        let vm = VmBuilder::new().vps(1).build();
        let interp = Interp::bare(vm.clone());
        let run = |src: &str| interp.eval(src).map(|v| v.to_string()).map_err(|e| e.to_string());
        for op in ["+", "-", "=", "<", ">", "<=", ">="] {
            let inline = run(&format!("({op} {a} {b})"));
            let table = run(&format!("(apply {op} (list {a} {b}))"));
            prop_assert_eq!(inline, table, "({} {} {})", op, a, b);
        }
        let inline = run(&format!("(zero? {a})"));
        prop_assert_eq!(inline, run(&format!("(apply zero? (list {a}))")));
        vm.shutdown();
    }
}
