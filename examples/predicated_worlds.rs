//! The paper's Figure 2, narrated: predicated messages between
//! speculative worlds, receiver splitting, and resolution.
//!
//! ```sh
//! cargo run --example predicated_worlds
//! ```
//!
//! A parent spawns three alternative methods; method 2 sends a partial
//! result to an observer process outside the block. The observer cannot
//! know whether method 2 will win, so the kernel splits it into two
//! internally-consistent copies — one world where method 2 completes, one
//! where it doesn't. When the block resolves, exactly one copy survives.

use worlds_kernel::{Delivered, SplitKernel};

fn show(k: &SplitKernel, label: &str, pid: worlds::Pid) {
    match k.process(pid) {
        Some(p) => println!("  {label:<18} {pid}  predicates {}", p.predicates),
        None => println!("  {label:<18} {pid}  (eliminated)"),
    }
}

fn main() {
    let mut k = SplitKernel::new(256);

    // The cast: a parent with shared state, and an observer service.
    let parent = k.spawn_root();
    let observer = k.spawn_root();
    k.write_state(parent, 0, b"shared input 42");
    k.write_state(observer, 0, b"observer's ledger");

    println!("alt_spawn(3): three mutually exclusive methods\n");
    let methods = k.alt_spawn(parent, 3);
    for (i, &m) in methods.iter().enumerate() {
        show(&k, &format!("method{}", i + 1), m);
    }
    println!("\n(each assumes its own completion and its siblings' failure —");
    println!(" \"sibling rivalry is taken to its extreme\")\n");

    // Method 2 speaks to the outside world while still speculative.
    println!("method2 sends a message to the observer...");
    k.send(methods[1], observer, "partial result: x=17");
    let Delivered::Split { accepting, payload } = k.deliver_next(observer) else {
        panic!("novel assumptions must split the receiver");
    };
    println!(
        "the observer SPLITS (it must assume things it cannot know yet):\n  payload: {:?}\n",
        String::from_utf8_lossy(&payload)
    );
    show(&k, "observer (doubts)", observer);
    show(&k, "observer (believes)", accepting);
    println!(
        "\nboth copies share the ledger COW; {} live processes\n",
        k.live_processes()
    );

    // Sibling messages would be ignored outright:
    k.send(methods[0], methods[1], "psst, rival");
    assert_eq!(k.deliver_next(methods[1]), Delivered::Ignored);
    println!(
        "(a message between rival siblings is ignored — their worlds are mutually exclusive)\n"
    );

    // Method 1 wins the race.
    println!("method1 synchronizes first: alt_wait commits it\n");
    let eliminated = k.commit(methods[0]);
    println!("eliminated: {eliminated:?}\n");
    show(&k, "parent", parent);
    show(&k, "observer (doubts)", observer);
    show(&k, "observer (believes)", accepting);

    let surviving = k.process(observer).expect("the skeptic survives");
    assert!(surviving.predicates.is_resolved());
    assert!(
        k.process(accepting).is_none(),
        "the believer died with method2"
    );
    assert_eq!(k.read_state(parent, 0, 15), b"shared input 42");
    println!(
        "\nthe skeptical observer survives with its assumptions resolved; the believing\n\
         copy — and every side effect of the message — vanished with method2's world."
    );
}
