//! vCPU contexts and the ACTIVE/INACTIVE ownership protocol (§5.2,
//! Figure 2).
//!
//! A vCPU context is protected not by a lock but by a state variable: a
//! physical CPU may only restore a context whose state is `Inactive`,
//! flipping it to `Active`, and flips it back after saving. The
//! relaxed-memory soundness of this protocol (store-release on the state,
//! load-acquire when checking) is established at litmus scale by
//! `vrm_core::paper_examples::example3`; here the protocol is enforced as
//! a state machine with panics mirroring Figure 2's `panic()`.

/// Architectural register file of one vCPU (abbreviated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VcpuCtx {
    /// General-purpose registers.
    pub regs: [u64; 8],
    /// Program counter.
    pub pc: u64,
    /// Monotonic generation counter (bumped on every save, used by tests
    /// to detect stale restores).
    pub generation: u64,
}

/// The ownership state of a vCPU context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcpuState {
    /// Not running anywhere; the context is current.
    Inactive,
    /// Running on the given physical CPU.
    Active {
        /// The physical CPU running this vCPU.
        cpu: usize,
    },
}

/// Errors from the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcpuError {
    /// Attempt to restore a context that is not `Inactive` (Figure 2's
    /// `panic()` branch).
    NotInactive,
    /// Attempt to save from a CPU that is not the active owner.
    NotOwner,
}

impl std::fmt::Display for VcpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcpuError::NotInactive => write!(f, "vCPU context is not INACTIVE"),
            VcpuError::NotOwner => write!(f, "saving CPU does not own the vCPU"),
        }
    }
}

impl std::error::Error for VcpuError {}

/// One vCPU.
#[derive(Debug, Clone, Hash)]
pub struct Vcpu {
    /// Saved context (valid while `Inactive`).
    pub ctx: VcpuCtx,
    /// Current protocol state.
    pub state: VcpuState,
}

impl Default for Vcpu {
    fn default() -> Self {
        Vcpu {
            ctx: VcpuCtx::default(),
            state: VcpuState::Inactive,
        }
    }
}

impl Vcpu {
    /// `restore_vm`: claim the context for `cpu` and hand out a copy.
    pub fn restore(&mut self, cpu: usize) -> Result<VcpuCtx, VcpuError> {
        match self.state {
            VcpuState::Inactive => {
                self.state = VcpuState::Active { cpu };
                Ok(self.ctx)
            }
            VcpuState::Active { .. } => Err(VcpuError::NotInactive),
        }
    }

    /// `save_vm`: store the (possibly modified) context back and release.
    pub fn save(&mut self, cpu: usize, mut ctx: VcpuCtx) -> Result<(), VcpuError> {
        match self.state {
            VcpuState::Active { cpu: owner } if owner == cpu => {
                ctx.generation = self.ctx.generation + 1;
                self.ctx = ctx;
                self.state = VcpuState::Inactive;
                Ok(())
            }
            _ => Err(VcpuError::NotOwner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_save_roundtrip() {
        let mut v = Vcpu::default();
        let mut ctx = v.restore(0).unwrap();
        ctx.regs[0] = 99;
        ctx.pc = 0x1000;
        v.save(0, ctx).unwrap();
        assert_eq!(v.state, VcpuState::Inactive);
        assert_eq!(v.ctx.regs[0], 99);
        assert_eq!(v.ctx.generation, 1);
    }

    #[test]
    fn double_restore_rejected() {
        let mut v = Vcpu::default();
        v.restore(0).unwrap();
        assert_eq!(v.restore(1), Err(VcpuError::NotInactive));
    }

    #[test]
    fn save_by_non_owner_rejected() {
        let mut v = Vcpu::default();
        v.restore(0).unwrap();
        assert_eq!(v.save(1, VcpuCtx::default()), Err(VcpuError::NotOwner));
        // Owner can still save.
        v.save(0, VcpuCtx::default()).unwrap();
    }

    #[test]
    fn generation_detects_progress() {
        let mut v = Vcpu::default();
        for i in 1..=3 {
            let ctx = v.restore(2).unwrap();
            v.save(2, ctx).unwrap();
            assert_eq!(v.ctx.generation, i);
        }
    }
}
