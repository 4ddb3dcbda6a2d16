//! Compile an OCCAM program to queue machine code and run it on the
//! multiprocessor simulator.
//!
//! ```sh
//! cargo run --example occam_to_queue_machine
//! ```

use queue_machine::occam::{compile, draw, Options};
use queue_machine::sim::config::SystemConfig;
use queue_machine::sim::system::System;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The thesis's Fig. 4.6 iteration example, with output to the host.
    let src = "\
var sum, result:
seq
  sum := 0
  seq k = [1 for 10]
    sum := sum + k
  result := sum
  screen ! result
";
    println!("OCCAM source:\n{src}");
    let compiled = compile(src, &Options::default())?;
    println!(
        "compiled into {} context(s), {} words of code\n",
        compiled.context_count,
        compiled.object.words().len()
    );
    println!("queue machine assembly:\n{}", compiled.asm);
    // The thesis's `draw` utility: every context's data-flow graph.
    let dot = draw::program_to_dot(src, &Options::default())?;
    println!("data-flow graphs (Graphviz DOT):\n{dot}");

    for pes in [1, 2] {
        let mut sys = System::new(SystemConfig::with_pes(pes));
        sys.load_object(&compiled.object);
        sys.spawn_main(compiled.object.symbol("main").expect("main context"));
        let out = sys.run()?;
        println!(
            "{pes} PE(s): output {:?} in {} cycles, {} contexts, {} channel transfers",
            out.output, out.elapsed_cycles, out.contexts_created, out.channel_transfers
        );
        assert_eq!(out.output, vec![55]);
    }
    Ok(())
}
