//! Conventional (Von Neumann) execution on the queue machine PE.
//!
//! A design goal of the thesis PE (§5.3) is supporting classic
//! register-style programming alongside the queue model: global registers
//! as a register file, branches over comparison results, memory
//! addressing — no operand queue involvement at all. These tests run
//! register-mode programs end to end.

use qm_isa::asm::assemble;
use qm_isa::mem::FlatMemory;
use qm_isa::pe::{NullServices, Pe, StepResult};

fn run(src: &str, max_steps: usize) -> (Pe, FlatMemory) {
    let obj = assemble(src).expect("assembles");
    let mut mem = FlatMemory::new();
    mem.load_words(0, obj.words());
    let mut pe = Pe::new(0);
    pe.reset(0, 0x8000_0400);
    let mut svc = NullServices;
    for _ in 0..max_steps {
        match pe.step(&mut mem, &mut svc) {
            StepResult::Continue => {}
            StepResult::Trap { entry: 3, .. } => return (pe, mem),
            other => panic!("unexpected {other:?}"),
        }
    }
    panic!("program did not halt in {max_steps} steps");
}

#[test]
fn register_mode_fibonacci() {
    // r17 = fib(12) computed with globals only.
    let src = "
        plus #0,#0 :r17      ; a = 0
        plus #1,#0 :r18      ; b = 1
        plus #12,#0 :r19     ; n = 12
loop:   plus r17,r18 :r20    ; t = a + b
        plus r18,#0 :r17     ; a = b
        plus r20,#0 :r18     ; b = t
        minus r19,#1 :r19
        gt r19,#0 :r21
        bne r21,@loop
        trap #3,#0
";
    let (pe, _) = run(src, 200);
    assert_eq!(pe.regs.read_global(17), 144, "fib(12)");
}

#[test]
fn register_mode_gcd() {
    // Euclid's algorithm by repeated subtraction: gcd(252, 105) = 21.
    let src = "
        plus #252,#0 :r17
        plus #105,#0 :r18
loop:   eq r17,r18 :r19
        bne r19,@done
        gt r17,r18 :r19
        bne r19,@bigger
        minus r18,r17 :r18   ; b -= a
        bne #-1,@loop
bigger: minus r17,r18 :r17   ; a -= b
        bne #-1,@loop
done:   trap #3,#0
";
    let (pe, _) = run(src, 2000);
    assert_eq!(pe.regs.read_global(17), 21);
}

#[test]
fn register_mode_memcpy() {
    // Copy 8 words from 0x100400 to 0x100600 with an index register.
    let src = "
        plus #0,#0 :r17              ; i = 0
loop:   lshift r17,#2 :r18           ; off = 4 i
        plus #0x00100400,r18 :r19
        fetch r19,#0 :r20
        plus #0x00100600,r18 :r19
        store r19,r20
        plus r17,#1 :r17
        lt r17,#8 :r21
        bne r21,@loop
        trap #3,#0
";
    let obj = assemble(src).unwrap();
    let mut mem = FlatMemory::new();
    mem.load_words(0, obj.words());
    for i in 0..8u32 {
        #[allow(clippy::cast_possible_wrap)]
        mem.poke(0x0010_0400 + 4 * i, (100 + i) as i32);
    }
    let mut pe = Pe::new(0);
    pe.reset(0, 0x8000_0400);
    let mut svc = NullServices;
    loop {
        match pe.step(&mut mem, &mut svc) {
            StepResult::Continue => {}
            StepResult::Trap { entry: 3, .. } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    for i in 0..8u32 {
        #[allow(clippy::cast_possible_wrap)]
        let want = (100 + i) as i32;
        assert_eq!(mem.peek(0x0010_0600 + 4 * i), want, "word {i}");
    }
    assert_eq!(pe.stats.mem_reads, 8);
    assert_eq!(pe.stats.mem_writes, 8);
}

#[test]
fn byte_operations_pack_and_unpack() {
    // storb/fchb build a word out of bytes and read them back.
    let src = "
        storb #0x00100800,#0x41
        plus #0x00100801,#0 :r17 >
        storb r17,#0x42
        fchb #0x00100800,#0 :r18
        fchb #0x00100801,#0 :r19
        trap #3,#0
";
    let (pe, mem) = run(src, 50);
    assert_eq!(pe.regs.read_global(18), 0x41);
    assert_eq!(pe.regs.read_global(19), 0x42);
    assert_eq!(mem.peek(0x0010_0800) & 0xFFFF, 0x4241);
}

#[test]
fn mixed_mode_queue_feeds_registers() {
    // Queue-mode arithmetic whose result parks in a global for
    // register-mode post-processing — the dual-paradigm pitch of §5.3.
    let src = "
        plus #6,#0 :r0
        plus #7,#0 :r1
        mul+2 r0,r1 :r0          ; queue mode: 42 at the front
        plus+1 r0,#0 :r17        ; drain the queue into a global
        lshift r17,#1 :r18       ; register mode: 84
        trap #3,#0
";
    let (pe, _) = run(src, 50);
    assert_eq!(pe.regs.read_global(17), 42);
    assert_eq!(pe.regs.read_global(18), 84);
    assert!(!pe.regs.full_state().1.contains(&true), "queue fully drained");
}

#[test]
fn queue_page_wraps_transparently_under_pom() {
    // Run a queue-mode loop long enough to wrap a 32-word page; presence
    // bits and paging must keep values straight.
    let src = "
        plus #0,#0 :r17          ; sum
        plus #40,#0 :r19         ; iterations
loop:   plus #3,#0 :r0           ; enqueue a 3
        plus+1 r17,r0 :r17       ; consume it
        minus r19,#1 :r19
        gt r19,#0 :r21
        bne r21,@loop
        trap #3,#0
";
    let obj = assemble(src).unwrap();
    let mut mem = FlatMemory::new();
    mem.load_words(0, obj.words());
    let mut pe = Pe::new(0);
    pe.reset(0, 0x8000_0400);
    pe.regs.set_pom(0b1110_0000); // 32-word page
    let mut svc = NullServices;
    loop {
        match pe.step(&mut mem, &mut svc) {
            StepResult::Continue => {}
            StepResult::Trap { entry: 3, .. } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(pe.regs.read_global(17), 120);
    // The queue pointer stayed inside its 32-word page.
    assert!(pe.regs.qp() >= 0x8000_0400 && pe.regs.qp() < 0x8000_0480);
}
