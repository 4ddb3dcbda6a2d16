//! White-box tests of code-generation behaviour: context structure,
//! optimization effects and graceful degradation.

use qm_occam::codegen::context_graphs;
use qm_occam::graph::{Actor, ChanRef};
use qm_occam::{compile, parse, sema, Options};

fn graphs(src: &str, opts: &Options) -> Vec<(String, qm_occam::graph::ContextGraph)> {
    let resolved = sema::analyse(&parse::parse(src).unwrap()).unwrap();
    context_graphs(&resolved, opts).unwrap()
}

#[test]
fn unrolled_constant_loop_is_a_single_context() {
    let src = "\
var s:
seq
  s := 0
  seq i = [0 for 8]
    s := s + i
  screen ! s
";
    let g = graphs(src, &Options::default());
    assert_eq!(g.len(), 1, "fully unrolled into main: {:?}", labels(&g));
    // Without unrolling the loop spawns test/body/term contexts.
    let g = graphs(src, &Options { loop_unrolling: false, ..Options::default() });
    assert_eq!(g.len(), 4, "term+body+test+main: {:?}", labels(&g));
}

fn labels(g: &[(String, qm_occam::graph::ContextGraph)]) -> Vec<&str> {
    g.iter().map(|(l, _)| l.as_str()).collect()
}

#[test]
fn runtime_bound_loops_stay_loops() {
    let src = "\
var s, n:
seq
  n := 8
  seq i = [0 for n]
    s := s + i
  screen ! s
";
    let g = graphs(src, &Options::default());
    assert!(g.len() > 1, "run-time count cannot unroll");
}

#[test]
fn read_only_arrays_need_no_control_tokens() {
    // `data` is host-initialised and never written: its fetches must not
    // be control-sequenced, and no K token for it appears anywhere.
    let src = "\
var data[4], s:
seq
  s := data[0] + data[1] + data[2] + data[3]
  screen ! s
";
    let g = graphs(src, &Options::default());
    let (_, main) = &g[0];
    for id in 0..main.len() {
        if *main.payload(id) == Actor::Fetch {
            assert!(
                main.ctrl_preds(id).next().is_none(),
                "read-only fetch {id} carries control edges: {:?}",
                main.ctrl_preds(id).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn written_arrays_are_sequenced() {
    let src = "\
var data[4], s:
seq
  data[0] := 7
  s := data[0]
  screen ! s
";
    let g = graphs(src, &Options::default());
    let (_, main) = &g[0];
    let fetches: Vec<usize> =
        (0..main.len()).filter(|&i| *main.payload(i) == Actor::Fetch).collect();
    assert_eq!(fetches.len(), 1);
    assert!(
        main.ctrl_preds(fetches[0]).next().is_some(),
        "the fetch must be ordered after the store"
    );
}

#[test]
fn queue_page_overflow_degrades_to_loops() {
    // 16 iterations × 3 assignments of wide expressions would overflow
    // the 256-slot queue page if unrolled together with the rest; the
    // compiler must fall back rather than fail.
    let mut body = String::from("var s, t, u:\nseq\n");
    for _ in 0..4 {
        body.push_str("  seq i = [0 for 16]\n");
        body.push_str("    seq\n");
        body.push_str("      s := s + (i * 3) - (i / 2) + (s >> 1)\n");
        body.push_str("      t := t + s - (i * i) + (t >> 2)\n");
        body.push_str("      u := u + t - s + (u >> 3)\n");
    }
    body.push_str("  screen ! s + t + u\n");
    let compiled = compile(&body, &Options::default()).expect("falls back, never fails");
    assert!(compiled.context_count >= 1);
}

#[test]
fn main_context_ends_with_end_trap() {
    let g = graphs("screen ! 1\n", &Options::default());
    let (_, main) = &g[0];
    let ends = (0..main.len()).filter(|&i| *main.payload(i) == Actor::End).count();
    assert_eq!(ends, 1);
}

#[test]
fn procedures_compile_once_for_many_call_sites() {
    let src = "\
proc inc(value x, var y) =
  y := x + 1
var a, b, c:
seq
  inc(1, a)
  inc(a, b)
  inc(b, c)
  screen ! c
";
    let g = graphs(src, &Options::default());
    let proc_contexts = labels(&g).iter().filter(|l| l.starts_with("proc_")).count();
    assert_eq!(proc_contexts, 1, "one reentrant context body: {:?}", labels(&g));
}

#[test]
fn recv_nodes_use_in_register_in_child_contexts() {
    let src = "\
var x:
seq
  x := 0
  while x < 3
    x := x + 1
  screen ! x
";
    let g = graphs(src, &Options::default());
    let test_ctx = g.iter().find(|(l, _)| l.starts_with("test")).expect("loop test context");
    let has_inreg_recv =
        (0..test_ctx.1.len()).any(|i| *test_ctx.1.payload(i) == Actor::Recv(ChanRef::InReg));
    assert!(has_inreg_recv, "loop contexts receive L on r17");
}

#[test]
fn dot_export_covers_all_contexts() {
    let src = "\
var x:
seq
  x := 1
  if
    x > 0
      screen ! x
";
    let opts = Options::default();
    let dot = qm_occam::draw::program_to_dot(src, &opts).unwrap();
    let g = graphs(src, &opts);
    assert_eq!(dot.matches("digraph").count(), g.len());
}
