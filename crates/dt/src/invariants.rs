//! Architectural invariant checkers, run after every op and every injected
//! fault event.
//!
//! Three families, matching the three layers a fault can corrupt:
//!
//! 1. **PKRS state machine** — at an op boundary the CPU must be back in a
//!    legal quiescent state: `PKRS == pkrs_guest()` on CKI hardware (the
//!    deprivileged guest key view), `PKRS == 0` everywhere else.
//! 2. **TLB/page-table coherence** — every cached translation must still
//!    agree with the live leaf PTE it was filled from: present, same pkey
//!    and NX, writable only if the leaf allows it, and D set in the leaf
//!    for every dirty-cached entry. A violation here means a missing
//!    shootdown.
//! 3. **Obs self-time** — the span profiler's exclusive-time bookkeeping
//!    survived the injected control-flow (no unbalanced enter/exit, no
//!    self > total).
//! 4. **Lookup indexes** — the summaries that let the walk skip host
//!    lookups still describe what they summarize: the EPT presence bitmap
//!    equals the gfns a walk of the stage-2 table finds, and the TLB's
//!    2 MiB/global count equals the number of such cached entries.

use cki::vmm::HvmPlatform;
use cki::{Backend, Stack};
use sim_mem::{pte, PhysMem, SlotEdit, PAGE_SIZE};

/// PKRS quiescent-state legality (§4.1: the third privilege level).
pub fn check_pkrs(stack: &Stack) -> Result<(), String> {
    let pkrs = stack.machine.cpu.pkrs;
    if stack.backend.needs_cki_hw() {
        let want = cki_core::pkrs_guest();
        if pkrs != want {
            return Err(format!(
                "PKRS state machine: {:#x} at op boundary on {}, want {want:#x}",
                pkrs,
                stack.backend.name()
            ));
        }
    } else if pkrs != 0 {
        return Err(format!(
            "PKRS state machine: {pkrs:#x} on non-CKI backend {}",
            stack.backend.name()
        ));
    }
    Ok(())
}

/// TLB/page-table coherence: no cached translation may contradict the PTE
/// it caches. The TLB may *forget* (capacity, flush) but never *lie*.
pub fn check_tlb(stack: &mut Stack) -> Result<(), String> {
    // Under EPT the TLB caches host-physical frames while the guest leaf
    // holds guest-physical ones, so the PA identity check only applies to
    // non-stage-2 backends. Flag/permission checks apply everywhere.
    let stage2 = matches!(
        stack.backend,
        Backend::HvmBm | Backend::HvmBm2M | Backend::HvmNested
    );
    let entries: Vec<_> = stack.machine.cpu.tlb.iter().collect();
    if entries.len() > stack.machine.cpu.tlb.capacity() {
        return Err(format!(
            "TLB over capacity: {} > {}",
            entries.len(),
            stack.machine.cpu.tlb.capacity()
        ));
    }
    for (va, pcid, e) in entries {
        let leaf = stack.machine.mem.read_u64(e.leaf_slot);
        let ident = format!(
            "va {va:#x} pcid {pcid} leaf_slot {:#x} on {}",
            e.leaf_slot,
            stack.backend.name()
        );
        if !pte::present(leaf) {
            return Err(format!(
                "TLB stale: cached entry but leaf not present ({ident})"
            ));
        }
        if e.writable && !pte::writable(leaf) {
            return Err(format!(
                "TLB stale: cached writable but leaf read-only ({ident})"
            ));
        }
        if e.dirty && leaf & pte::D == 0 {
            return Err(format!(
                "TLB incoherent: dirty cached, D clear in leaf ({ident})"
            ));
        }
        if pte::pkey(leaf) != e.pkey {
            return Err(format!(
                "TLB incoherent: pkey {} cached, {} in leaf ({ident})",
                e.pkey,
                pte::pkey(leaf)
            ));
        }
        if ((leaf & pte::NX) != 0) != e.nx {
            return Err(format!("TLB incoherent: NX mismatch ({ident})"));
        }
        if !stage2 && e.page_size == PAGE_SIZE && pte::addr(leaf) != e.page_pa {
            return Err(format!(
                "TLB stale: cached PA {:#x}, leaf maps {:#x} ({ident})",
                e.page_pa,
                pte::addr(leaf)
            ));
        }
    }
    Ok(())
}

/// Obs self-time invariant (DESIGN.md §9): exclusive time never exceeds
/// inclusive time and every span exit matched its enter.
pub fn check_obs(stack: &Stack) -> Result<(), String> {
    match stack.machine.cpu.profiler.self_time_violation() {
        Some(v) => Err(format!("obs self-time: {v} on {}", stack.backend.name())),
        None => Ok(()),
    }
}

/// Lookup-index invariants: the EPT presence bitmap (HVM backends) and the
/// TLB's count of 2 MiB and global entries agree with what they index.
pub fn check_indexes(stack: &mut Stack) -> Result<(), String> {
    let tlb = &stack.machine.cpu.tlb;
    let counted = tlb.huge_or_global_len();
    let cached = tlb
        .iter()
        .filter(|&(_, pcid, e)| pcid == 0xffff || e.page_size != PAGE_SIZE)
        .count();
    if counted != cached {
        return Err(format!(
            "TLB index: {counted} 2 MiB/global tags counted, {cached} cached on {}",
            stack.backend.name()
        ));
    }
    let Some(hvm) = stack.kernel.platform.as_any().downcast_ref::<HvmPlatform>() else {
        return Ok(());
    };
    let ept = hvm.ept();
    let window = ept.size.div_ceil(PAGE_SIZE);
    let mut walked = Vec::new();
    stage2_gfns(&mut stack.machine.mem, ept.root(), 4, 0, &mut walked);
    walked.retain(|&gfn| gfn < window);
    let indexed: Vec<u64> = ept.present_gfns().collect();
    if walked != indexed {
        let first = walked.iter().zip(&indexed).position(|(a, b)| a != b);
        return Err(format!(
            "EPT bitmap: {} gfns set, {} mapped by the stage-2 table, first \
             difference at entry {first:?} on {}",
            indexed.len(),
            walked.len(),
            stack.backend.name()
        ));
    }
    Ok(())
}

/// Appends, ascending, every 4 KiB gfn mapped under the stage-2 `table`
/// at `level`, whose first gfn is `gfn`. Visits present entries only, as
/// `free_table_recursive` does, reading each table in one slot run.
fn stage2_gfns(mem: &mut PhysMem, table: u64, level: u8, gfn: u64, out: &mut Vec<u64>) {
    let span = 1u64 << (9 * (level - 1));
    let mut present = Vec::new();
    mem.edit_slots(table, 512, |idx, entry| {
        if pte::present(entry) {
            present.push((idx as u64, entry));
        }
        SlotEdit::Keep
    });
    for (idx, entry) in present {
        let first = gfn + idx * span;
        if level == 1 || (level == 2 && pte::huge(entry)) {
            out.extend(first..first + span);
        } else {
            stage2_gfns(mem, pte::addr(entry), level - 1, first, out);
        }
    }
}

/// Runs all invariant families; returns the first violation.
pub fn check_all(stack: &mut Stack) -> Result<(), String> {
    check_pkrs(stack)?;
    check_tlb(stack)?;
    check_obs(stack)?;
    check_indexes(stack)
}
