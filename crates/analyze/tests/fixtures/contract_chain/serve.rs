//! Seeded: a `no-alloc` root whose violation sits three calls deep.
//! The diagnostic must print the whole chain, root to offender.

// scs-contract: no-alloc
pub fn serve_job(out: &mut [u32]) {
    route(out);
}

fn route(out: &mut [u32]) {
    gather(out);
}

fn gather(out: &mut [u32]) {
    emit(out);
}

fn emit(out: &mut [u32]) {
    let scratch = Vec::with_capacity(out.len());
    for (slot, v) in out.iter_mut().zip(scratch) {
        *slot = v;
    }
}
