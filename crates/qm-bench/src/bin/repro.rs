//! Regenerate the thesis's tables and figures (see `DESIGN.md` for the
//! index): one subcommand per table or figure, or `--all` for every one
//! in index order, which is the committed `THESIS_TABLES.txt`.
//!
//! Usage: `repro <name> | repro --all`
//!
//! Every subcommand asserts what it prints: the thesis's published
//! values where the thesis gives them, and a `correct` verification of
//! every simulated run.

use std::collections::HashMap;

use qm_bench::sweep::{
    bus_ablation_grid, channel_ablation_grid, curves_grid, placement_ablation_grid, run_point,
    run_serial, scaling_grid,
};
use qm_bench::{text_table, thesis_workloads, PE_COUNTS};
use qm_core::dfg::{analysis, Dag, ValueRef};
use qm_core::expr::{Op, ParseTree};
use qm_core::level_order::level_order_sequence;
use qm_core::pipeline::speedup_row;
use qm_core::{simple, stack};
use qm_occam::Options;
use qm_sim::amdahl::thesis_curves;
use qm_workloads::{Workload, WorkloadRun};

/// Every subcommand, in `DESIGN.md`'s index order (the `--all` order).
const REPORTS: [(&str, fn()); 16] = [
    ("table3_1", table3_1),
    ("table3_2", table3_2),
    ("table3_3", table3_3),
    ("table3_4", table3_4),
    ("table4_4", table4_4),
    ("fig6_6", fig6_6),
    ("fig6_8_matmul", fig6_8_matmul),
    ("fig6_10_fft", fig6_10_fft),
    ("fig6_11_cholesky", fig6_11_cholesky),
    ("fig6_12_congruence", fig6_12_congruence),
    ("table6_6_opt", table6_6_opt),
    ("curves", curves),
    ("ablation_channels", ablation_channels),
    ("ablation_placement", ablation_placement),
    ("ablation_bus", ablation_bus),
    ("scaling", scaling),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<fn()> = match args.as_slice() {
        [all] if all == "--all" => REPORTS.iter().map(|&(_, report)| report).collect(),
        [name] => REPORTS.iter().filter(|(n, _)| n == name).map(|&(_, report)| report).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = REPORTS.iter().map(|&(n, _)| n).collect();
        eprintln!("usage: repro <name> | repro --all");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    }
    for report in selected {
        report();
    }
}

/// Table 3.1: queue machine and stack machine instruction sequences for
/// `f ← a·b + (c − d)/e`, with the operand queue/stack contents at every
/// step.
fn table3_1() {
    let tree = ParseTree::parse_infix("a*b + (c-d)/e").expect("fixed expression");
    let env = |n: &str| match n {
        "a" => 2,
        "b" => 3,
        "c" => 20,
        "d" => 6,
        "e" => 7,
        _ => 0,
    };
    let queue_ops = level_order_sequence(&tree);
    let stack_ops = tree.post_order();
    let qt = simple::trace(&queue_ops, &env).expect("valid queue program");
    let st = stack::trace(&stack_ops, &env).expect("valid stack program");

    println!("Table 3.1 — f <- a*b + (c-d)/e   (a=2 b=3 c=20 d=6 e=7)\n");
    let rows: Vec<Vec<String>> = (0..queue_ops.len())
        .map(|i| {
            let fmt_q: Vec<String> =
                qt.states[i + 1].queue.iter().map(ToString::to_string).collect();
            let mut s_rev: Vec<String> =
                st.states[i + 1].stack.iter().map(ToString::to_string).collect();
            s_rev.reverse(); // thesis prints top of stack first
            vec![stack_ops[i].mnemonic(), s_rev.join(","), queue_ops[i].mnemonic(), fmt_q.join(",")]
        })
        .collect();
    println!(
        "{}",
        text_table(&["stack instr", "stack after", "queue instr", "queue after"], &rows)
    );
    println!("stack result = {}   queue result = {}", st.result, qt.result);
    assert_eq!(st.result, qt.result);

    // The thesis observation: same multiset of instructions, different order.
    let mut a: Vec<String> = queue_ops.iter().map(Op::mnemonic).collect();
    let mut b: Vec<String> = stack_ops.iter().map(Op::mnemonic).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "queue sequence is a permutation of the stack sequence");
    println!("(queue sequence is a permutation of the stack sequence)");
}

/// Table 3.2: average queue-over-stack speed-up as a function of parse
/// tree size, for a two-stage pipelined ALU, under case 1 (non-overlapped
/// fetch) and case 2 (overlapped fetch).
fn table3_2() {
    println!("Table 3.2 — speed-up vs parse-tree size (2-stage pipelined ALU)\n");
    let rows: Vec<Vec<String>> = (1..=11)
        .map(|n| {
            let row = speedup_row(n, 2);
            vec![
                n.to_string(),
                row.tree_count.to_string(),
                format!("{:.2}", row.case1),
                format!("{:.2}", row.case2),
            ]
        })
        .collect();
    println!("{}", text_table(&["nodes", "trees", "case 1", "case 2"], &rows));
    println!("note: tree counts are Motzkin numbers (see EXPERIMENTS.md for the");
    println!("comparison against the thesis's enumeration).");
}

/// Table 3.3: queue-over-stack speed-up for 11-node parse trees as a
/// function of the number of ALU pipeline stages.
fn table3_3() {
    println!("Table 3.3 — speed-up vs pipeline stages (11-node parse trees)\n");
    let rows: Vec<Vec<String>> = (1..=6)
        .map(|stages| {
            let row = speedup_row(11, stages);
            vec![stages.to_string(), format!("{:.2}", row.case1), format!("{:.2}", row.case2)]
        })
        .collect();
    println!("{}", text_table(&["stages", "case 1", "case 2"], &rows));
}

/// Table 3.4: the indexed queue machine instruction sequence for
/// `d ← a/(a+b) + (a+b)·c`, generated from the Fig. 3.6(b) data-flow
/// graph, with the queue contents at every step.
fn table3_4() {
    let tree = ParseTree::parse_infix("a/(a+b) + (a+b)*c").expect("fixed expression");
    let dag = Dag::from_parse_tree(&tree);
    println!(
        "Table 3.4 — d <- a/(a+b) + (a+b)c: parse tree has {} nodes, DAG has {}\n",
        tree.node_count(),
        dag.len()
    );
    let program = dag.to_indexed_program(&dag.topo_order()).expect("single-sink DAG");
    let env = |n: &str| match n {
        "a" => 12,
        "b" => 4,
        "c" => 3,
        _ => 0,
    };
    let trace = program.trace(&env).expect("valid program");
    let rows: Vec<Vec<String>> = program
        .instructions
        .iter()
        .enumerate()
        .map(|(i, instr)| {
            let q: Vec<String> = trace.states[i + 1]
                .queue
                .iter()
                .map(|s| s.map_or("·".to_string(), |v| v.to_string()))
                .collect();
            vec![
                instr.op.mnemonic(),
                instr.result_offsets.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
                q.join(","),
            ]
        })
        .collect();
    println!("{}", text_table(&["instruction", "result indices", "queue after"], &rows));
    println!("result = {} (a=12 b=4 c=3)", trace.result);
    #[allow(clippy::identity_op)]
    let expected = (12 / 16) + 16 * 3; // a/(a+b) truncates to 0
    assert_eq!(trace.result, expected);
    assert_eq!(program.len(), 7, "7 instructions vs 11 on a simple queue machine");

    // Cross-check against the direct parse-tree evaluation.
    assert_eq!(trace.result, tree.evaluate(&env).expect("evaluable"));
}

/// Tables 4.4–4.5: `P*(v)`, `I*(v)`, `C(v)` and the input weights `W(v)`
/// for the Fig. 4.14 data-flow graph of `e ← ((a+b) × (−c)) ÷ d`, plus
/// the depth-first node list of Fig. 4.13.
fn table4_4() {
    let mut g: Dag<&str> = Dag::new();
    let mut add = |name, ins: &[usize]| {
        let vins: Vec<ValueRef> = ins.iter().map(|&v| ValueRef::of(v)).collect();
        g.add(name, &vins, &[])
    };
    let a = add("a", &[]);
    let b = add("b", &[]);
    let plus = add("+", &[a, b]);
    let c = add("c", &[]);
    let neg = add("-", &[c]);
    let mul = add("*", &[plus, neg]);
    let d = add("d", &[]);
    let div = add("/", &[mul, d]);
    add("e", &[div]);

    let dfl = analysis::depth_first_list(&g);
    let names: Vec<&str> = dfl.iter().map(|&v| *g.payload(v)).collect();
    println!("Fig. 4.13/4.14 — depth-first list: {}\n", names.join(" "));

    // The compiler's own analysis: bitset rows of P* and I*.
    let info = analysis::analyse(&g, &[a, b, c, d]);
    println!("Table 4.4 — P*(v), I*(v), C(v)\n");
    let set = |ids: Vec<usize>| -> String {
        let names: Vec<&str> = ids.iter().map(|&v| *g.payload(v)).collect();
        format!("{{{}}}", names.join(","))
    };
    let rows: Vec<Vec<String>> = g
        .node_ids()
        .map(|v| {
            vec![
                (*g.payload(v)).to_string(),
                set(info.predecessors(v).collect()),
                set(info.required_inputs(v).collect()),
                info.cost(v).to_string(),
            ]
        })
        .collect();
    println!("{}", text_table(&["v", "P*(v)", "I*(v)", "C(v)"], &rows));

    println!("Table 4.5 — input weights W(v) (descending = transmission order)\n");
    let seq = info.input_sequence();
    let rows: Vec<Vec<String>> =
        seq.iter().map(|&(v, w)| vec![(*g.payload(v)).to_string(), w.to_string()]).collect();
    println!("{}", text_table(&["v", "W(v)"], &rows));

    // The thesis's published values.
    let by_name: HashMap<&str, usize> = seq.iter().map(|&(v, w)| (*g.payload(v), w)).collect();
    assert_eq!(by_name["a"], 27);
    assert_eq!(by_name["b"], 27);
    assert_eq!(by_name["c"], 26);
    assert_eq!(by_name["d"], 18);
    println!("matches Table 4.5: W(a)=27 W(b)=27 W(c)=26 W(d)=18");
}

/// Figures 6.6–6.7: Amdahl's law (f = 0.93) and the modified law
/// (f = 0.63, g = 0.3) over 1–8 processors.
fn fig6_6() {
    println!("Fig. 6.6 / 6.7 — analytic speed-up curves\n");
    let rows: Vec<Vec<String>> = thesis_curves(8)
        .into_iter()
        .map(|p| vec![p.n.to_string(), format!("{:.3}", p.amdahl), format!("{:.3}", p.modified)])
        .collect();
    println!("{}", text_table(&["n", "Amdahl f=0.93", "modified f=0.63 g=0.3"], &rows));
}

/// Table 6.2 + Fig. 6.8: matrix multiplication.
fn fig6_8_matmul() {
    report_workload(&qm_workloads::matmul(8), "Table 6.2", "Fig. 6.8");
}

/// Table 6.3 + Fig. 6.10: Fast Fourier Transform.
fn fig6_10_fft() {
    report_workload(&qm_workloads::fft(16), "Table 6.3", "Fig. 6.10");
}

/// Table 6.4 + Fig. 6.11: Cholesky decomposition.
fn fig6_11_cholesky() {
    report_workload(&qm_workloads::cholesky(8), "Table 6.4", "Fig. 6.11");
}

/// Table 6.5 + Fig. 6.12: congruence transformation (B = PᵀAP).
fn fig6_12_congruence() {
    report_workload(&qm_workloads::congruence(8), "Table 6.5", "Fig. 6.12");
}

/// Run one workload over [`PE_COUNTS`] and print its statistics table
/// (Tables 6.2–6.5 format) followed by the throughput-ratio curve
/// (Figs 6.8/6.10–6.12 format).
fn report_workload(w: &Workload, table_name: &str, fig_name: &str) {
    println!("{table_name} — statistics for the {} program\n", w.name);
    let mut stat_rows = Vec::new();
    let mut curve_rows = Vec::new();
    let mut base: Option<u64> = None;
    for &pes in &PE_COUNTS {
        let r = WorkloadRun::with_pes(pes).run(w).expect("benchmark run");
        assert!(r.correct, "{} on {pes} PEs: {:?}", w.name, r.mismatches);
        let o = &r.outcome;
        stat_rows.push(vec![
            pes.to_string(),
            o.elapsed_cycles.to_string(),
            o.instructions.to_string(),
            o.contexts_created.to_string(),
            o.peak_live_contexts.to_string(),
            o.channel_transfers.to_string(),
            o.pes.iter().map(|p| p.stats.context_switches).sum::<u64>().to_string(),
            o.mem.remote_accesses.to_string(),
        ]);
        let b = *base.get_or_insert(o.elapsed_cycles);
        #[allow(clippy::cast_precision_loss)]
        let ratio = b as f64 / o.elapsed_cycles as f64;
        curve_rows.push(vec![pes.to_string(), o.elapsed_cycles.to_string(), format!("{ratio:.2}")]);
    }
    println!(
        "{}",
        text_table(
            &[
                "PEs",
                "cycles",
                "instrs",
                "contexts",
                "peak live",
                "transfers",
                "switches",
                "remote mem"
            ],
            &stat_rows
        )
    );
    println!("{fig_name} — system throughput ratio vs number of processors\n");
    println!("{}", text_table(&["PEs", "cycles", "throughput ratio"], &curve_rows));
}

/// Table 6.6: compiler optimization speed-up factors. Each optimization
/// is disabled in turn (the rest stay on) and every workload re-run on
/// 4 PEs; the factor is `cycles(optimization off) / cycles(all on)`.
fn table6_6_opt() {
    let all_on = Options::default();
    let variants: [(&str, Options); 4] = [
        ("live-value analysis", Options { live_value_analysis: false, ..all_on }),
        ("input sequencing (π_I)", Options { input_sequencing: false, ..all_on }),
        ("priority scheduling", Options { priority_scheduling: false, ..all_on }),
        ("loop unrolling", Options { loop_unrolling: false, ..all_on }),
    ];
    let pes = 4;
    println!("Table 6.6 — compiler optimization speed-up factors ({pes} PEs)\n");
    let mut rows = Vec::new();
    for w in thesis_workloads() {
        let base = WorkloadRun::with_pes(pes).options(all_on).run(&w).expect("baseline run");
        assert!(base.correct, "{}: {:?}", w.name, base.mismatches);
        let mut row = vec![w.name.clone()];
        for (name, opts) in &variants {
            let r = WorkloadRun::with_pes(pes)
                .options(*opts)
                .run(&w)
                .unwrap_or_else(|e| panic!("{} without {name}: {e}", w.name));
            assert!(r.correct, "{} without {name}: {:?}", w.name, r.mismatches);
            #[allow(clippy::cast_precision_loss)]
            let factor = r.outcome.elapsed_cycles as f64 / base.outcome.elapsed_cycles as f64;
            row.push(format!("{factor:.2}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        text_table(&["program", "live-value", "input seq", "priorities", "unrolling"], &rows)
    );
    println!("factor = cycles with the optimization disabled / cycles with all enabled");
}

/// Speed-up curves for the five benchmark programs (Figs 6.8/6.10–6.12
/// one-liner format), over [`curves_grid`].
fn curves() {
    for (name, pts) in curves_grid() {
        let rs = run_serial(&pts);
        assert!(rs.iter().all(|r| r.metrics.correct), "{name}: incorrect run");
        let base = rs[0].metrics.cycles;
        print!("{name:12}");
        for r in &rs {
            #[allow(clippy::cast_precision_loss)]
            let ratio = base as f64 / r.metrics.cycles as f64;
            print!("  {}pe:{} ({ratio:.2}x)", r.pes, r.metrics.cycles);
        }
        println!();
    }
}

/// Ablation: message-cache capacity, over [`channel_ablation_grid`].
/// Capacity 0 is the §4.2 pure rendezvous semantics (every send blocks
/// until its receive); larger capacities model the §5.5 message-cache
/// hardware, under which splice traffic stops costing a context switch
/// per word.
fn ablation_channels() {
    let grid = channel_ablation_grid();
    let name = grid[0].1.workload.name.clone();
    println!("Ablation — message-cache capacity ({name}, 4 PEs)\n");
    let mut rows = Vec::new();
    let mut base: Option<u64> = None;
    for (capacity, p) in grid {
        let r = run_point(&p);
        assert!(r.metrics.correct, "capacity {capacity}: incorrect run");
        let cycles = r.metrics.cycles;
        let b = *base.get_or_insert(cycles);
        #[allow(clippy::cast_precision_loss)]
        rows.push(vec![
            capacity.to_string(),
            cycles.to_string(),
            format!("{:.2}", b as f64 / cycles as f64),
            r.metrics.switches.to_string(),
        ]);
    }
    println!(
        "{}",
        text_table(&["cache slots", "cycles", "speed-up vs rendezvous", "context switches"], &rows)
    );
}

/// Ablation: context placement policy, over [`placement_ablation_grid`].
/// `Local` degenerates to uniprocessing (every fork stays home);
/// `RoundRobin` spreads blindly; `LeastLoaded` follows PE clocks and
/// queue depth.
fn ablation_placement() {
    println!("Ablation — context placement policy (8 PEs)\n");
    let mut rows = Vec::new();
    for (name, pts) in placement_ablation_grid() {
        let rs = run_serial(&pts);
        assert!(rs.iter().all(|r| r.metrics.correct), "{name}: incorrect run");
        let mut row = vec![name];
        row.extend(rs.iter().map(|r| r.metrics.cycles.to_string()));
        rows.push(row);
    }
    println!("{}", text_table(&["program", "local", "round-robin", "least-loaded"], &rows));
    println!("cycles on 8 PEs; lower is better");
}

/// Ablation: ring-bus partitioning and remote-access cost (the §5.6
/// segmented-bus topology), over [`bus_ablation_grid`].
fn ablation_bus() {
    let (partition_grid, scale_grid) = bus_ablation_grid();
    let name = partition_grid[0].1.workload.name.clone();
    println!("Ablation — bus partitioning ({name}, 8 PEs)\n");
    let mut rows = Vec::new();
    for (partitions, p) in partition_grid {
        let r = run_point(&p);
        assert!(r.metrics.correct);
        rows.push(vec![
            partitions.to_string(),
            r.metrics.cycles.to_string(),
            r.metrics.remote_accesses.to_string(),
            r.metrics.bus_cycles.to_string(),
        ]);
    }
    println!("{}", text_table(&["partitions", "cycles", "remote accesses", "bus cycles"], &rows));

    println!("Ablation — remote access cost scaling (4 partitions)\n");
    let mut rows = Vec::new();
    for (scale, p) in scale_grid {
        let r = run_point(&p);
        assert!(r.metrics.correct);
        rows.push(vec![format!("x{scale}"), r.metrics.cycles.to_string()]);
    }
    println!("{}", text_table(&["remote cost", "cycles"], &rows));
}

/// Problem-size scaling study, over [`scaling_grid`]: how the 8-PE
/// throughput ratio grows with the work per context (the §4.3
/// granularity argument: bigger acyclic graphs amortise the splicing
/// overhead).
fn scaling() {
    println!("Scaling — matmul problem size vs 8-PE throughput ratio\n");
    let mut rows = Vec::new();
    for (n, pts) in scaling_grid() {
        let rs = run_serial(&pts);
        assert!(rs.iter().all(|r| r.metrics.correct), "matmul {n}: incorrect run");
        let one = rs[0].metrics.cycles;
        let eight = rs[1].metrics.cycles;
        #[allow(clippy::cast_precision_loss)]
        let ratio = one as f64 / eight as f64;
        rows.push(vec![
            format!("{n}x{n}"),
            one.to_string(),
            eight.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{}", text_table(&["size", "1-PE cycles", "8-PE cycles", "ratio"], &rows));
    println!("larger problems amortise fork/channel overhead over more work;");
    println!("sizes whose row count is not a multiple of 8 dip (round-robin");
    println!("placement double-loads some PEs — e.g. 10 rows on 8 PEs)");
}
