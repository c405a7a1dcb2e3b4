//! Accesses at the top of the address space: an access that runs past its
//! extent's end is a `Split` fault, even where `addr + len` would overflow
//! a `u64`.

use pulse_isa::{MemBus, MemFault};
use pulse_mem::{ClusterMemory, Perms};

#[test]
fn read_past_the_last_extent_splits_without_overflow() {
    let mut mem = ClusterMemory::new(1);
    mem.add_extent(u64::MAX - 4095, 4095, 0, Perms::RW).unwrap();
    let mut buf = [0u8; 16];
    let addr = u64::MAX - 8;
    assert_eq!(mem.read(addr, &mut buf), Err(MemFault::Split { addr }));
    assert_eq!(mem.write(addr, &buf), Err(MemFault::Split { addr }));
    let mut word = [0u8; 8];
    assert_eq!(mem.read(addr, &mut word), Ok(()), "the last 8 bytes fit");
}
