//! `worlds::sim::VirtualTime` is the one item left in `worlds::sim`: the
//! benchmark package (`benchmark/`) names the virtual clock by that path.
//! It must resolve, and name the same type the simulator charges time in.

use multiple_worlds::{worlds, worlds_kernel};

#[test]
fn worlds_sim_names_the_simulators_virtual_time() {
    let t: worlds_kernel::VirtualTime = worlds::sim::VirtualTime::from_ms(1.5);
    assert_eq!(t.as_ns(), 1_500_000);
    assert_eq!(
        worlds::sim::VirtualTime::ZERO,
        worlds_kernel::VirtualTime::ZERO
    );
}
