(** A simulated CPU core executing GRISC, with cycle-level timing
    through its attached TLB, branch predictor, and cache hierarchy.

    The same core type plays two roles (§3.2):
    - a {b model core}, whose hierarchy reaches only model DRAM and the
      shared IO region, and whose only outbound signal is the [Irq]
      doorbell;
    - a {b hypervisor core}, with its own hierarchy over hypervisor DRAM
      plus a private bus into (halted) model-core DRAM.

    The management operations in {!section-control} implement the seven
    hypervisor-core privileges the paper enumerates: pause, inspect and
    modify ISA state, watchpoints, MMU lockdown (via {!Mmu}),
    microarchitectural clearing, single-step/resume, and power-down.
    The machine layer restricts who may call them; nothing in the model
    core's own ISA can reach any of this state.

    Trap ABI: when an exception or interrupt is delivered, the core
    latches the cause into register r13 and the faulting address (when
    meaningful) into r12, saves the interrupted pc in [epc], and jumps to
    the handler address stored in the vector-table slot.  A zero vector
    entry halts the core with the cause preserved. *)

type kind = Model_core | Hypervisor_core

type halt_reason =
  | Halt_instruction
  | Forced_pause
  | Unhandled_exception of Guillotine_isa.Isa.exn_cause
  | Watchpoint of int
  | Double_fault

type status = Running | Halted of halt_reason | Powered_off

type t

val create :
  id:int ->
  kind:kind ->
  hierarchy:Guillotine_memory.Hierarchy.t ->
  ?tlb:Guillotine_memory.Tlb.t ->
  ?bpred:Bpred.t ->
  ?mmu:Guillotine_memory.Mmu.t ->
  unit ->
  t
(** [tlb]/[bpred] default to fresh private structures; passing shared
    ones models co-tenant execution (the baseline machine does this).
    [mmu] defaults to a fresh empty page table. *)

val id : t -> int
val kind : t -> kind
val status : t -> status
val mmu : t -> Guillotine_memory.Mmu.t
val hierarchy : t -> Guillotine_memory.Hierarchy.t
val cycles : t -> int
val instructions_retired : t -> int

val traps_taken : t -> int
(** Exceptions delivered since creation (handled or halting), the
    per-core "trap" count surfaced in machine telemetry. *)

val interrupts_delivered : t -> int
(** Interrupts actually delivered to a handler (dropped ones — no
    vector installed — are not counted). *)

val microarch_clears : t -> int
(** Times {!clear_microarch_state} flushed this core's TLB, branch
    predictor, and cache hierarchy. *)

(** {2 Execution} *)

val step : t -> bool
(** Execute one instruction (delivering a pending interrupt first).
    [false] when the core is not [Running]. *)

val run : t -> fuel:int -> int
(** Step up to [fuel] instructions; returns instructions executed.
    Stops early on any halt. *)

val run_cycles : t -> cycles:int -> int
(** Step instructions until the core's cycle counter has advanced by at
    least [cycles] (the final instruction may overshoot, at instruction
    granularity), or it halts.  Returns instructions executed.  This is
    the batched inner loop: a driver advancing simulated time in quanta
    calls this once per quantum instead of once per instruction. *)

(** {2 Predecode fast path}

    The interpreter memoises instruction decode in a per-core
    direct-mapped paddr-indexed cache, validated against the DRAM write
    generation ({!Guillotine_memory.Dram.generation}) on every fetch and
    revalidated word-for-word when the generation has moved.  The fast
    path changes host time only — simulated cycles, cache-state
    movement, and every architectural effect are identical with it on
    or off (the equivalence suite pins this).  The
    [GUILLOTINE_NO_PREDECODE] environment variable (any value other
    than empty or ["0"]) disables it at start-up. *)

val set_predecode : bool -> unit
(** Process-wide override of the predecode fast path (applies to all
    cores, including existing ones — entries are revalidated, never
    trusted, so toggling is always safe). *)

val predecode_enabled : unit -> bool

val predecode_stats : t -> int * int
(** [(hits, fills)]: fetches served from the predecode cache vs decode
    calls that filled a slot.  Host-perf observability only. *)

(** {2 Threaded-code block translation}

    The step above predecode: at [Hypervisor.install_program] time the
    vet layer's CFG recovery supplies a basic-block plan
    ({!Jit.plan}); each block keeps one compiled op per instruction —
    the same op the interpreter's predecode slot holds, so there is one
    semantics and two dispatchers — and runs them with a single
    dispatch per block entry instead of per instruction.  Same contract as the predecode cache, enforced the
    same way: translated execution is simulated-state invisible (every
    instruction still takes its TLB lookup, MMU translation, hierarchy
    fetch, and cycle charges, bit-identically), and every translated
    fetch revalidates the fetched word against the word it was
    compiled from, so self-modifying, DMA-patched, fault-flipped, or
    snapshot-restored code invalidates the translation and falls back
    to the interpreter.  [GUILLOTINE_NO_JIT] (any value other than
    empty or ["0"]) disables it at start-up. *)

val set_jit : bool -> unit
(** Process-wide override of block-translated execution (safe to toggle
    at any time: translations are revalidated per fetch, never
    trusted). *)

val jit_enabled : unit -> bool

val install_jit : t -> Jit.plan -> unit
(** Install a block plan for the program just loaded and eagerly
    translate its blocks — hottest first when the core still carries
    {!profile_cycles} data for a matching block map (the
    profile-guided reinstall path), identity order otherwise.
    Replaces any previous plan.  Blocks that cannot be translated
    (unmapped, IO-resident, undecodable, non-contiguous) stay on the
    interpreter.  After an invalidation the block is recompiled lazily
    on its next entry. *)

val jit_stats : t -> Jit.stats
(** Translation-cache counters (host-side observability only). *)

(** {2 Cycle-attribution profiling}

    When profiling is on, every simulated cycle the core charges is
    attributed to a [(basic block, cost class)] cell in a flat int
    array — no allocation on the hot path, and {e zero} effect on
    simulated-cycle behaviour (the equivalence suite pins this, same
    discipline as the predecode fast path).  The hypervisor installs
    the paddr→block map at program-install time from the vetting CFG;
    cycles charged at a pc outside the map (or before any map is
    installed) land in a single pseudo-block with id
    [profile_nblocks t].  Mediation, copy, and DMA cycles the
    hypervisor charges on a guest's behalf are attributed via
    {!profile_note}. *)

val set_profile_default : bool -> unit
(** Process-wide default for [prof_on] applied at {!create} time.
    Initialised from the [GUILLOTINE_PROFILE] environment variable
    (any value other than empty or ["0"] enables). *)

val profile_default : unit -> bool

val profiling : t -> bool
val set_profiling : t -> bool -> unit

val set_profile_blocks : t -> block_of:int array -> leaders:int array -> unit
(** Install the paddr→block-id map: [block_of.(paddr)] is the owning
    block id (or [Array.length leaders] for unmapped words);
    [leaders.(b)] is block [b]'s leader paddr.  Resets accumulators.
    Raises [Invalid_argument] if any id is out of range. *)

val reset_profile : t -> unit

val profile_nblocks : t -> int
(** Real blocks in the installed map; the pseudo-block for unmapped
    pcs has this id. *)

val profile_leaders : t -> int array

val profile_cycles : t -> int array
(** Row-major copy of the accumulators: index
    [block * Guillotine_util.Cost_class.count + Cost_class.index cls],
    with [profile_nblocks t + 1] rows (last row = pseudo-block).  For a
    core profiled since creation, the sum of all cells equals {!cycles}
    plus whatever {!profile_note} attributed on the core's behalf
    (hypervisor-side charges land on the hypervisor core's counter). *)

val profile_retired : t -> int array
(** Instructions retired per block (same row indexing). *)

val profile_note : t -> cls:Guillotine_util.Cost_class.t -> int -> unit
(** Attribute [cycles] externally-charged cycles (hypervisor mediation,
    copy, DMA) to the core's current block under [cls].  No-op when
    profiling is off. *)

val set_speculation_depth : t -> int -> unit
(** Size of the transient window executed down the wrong path after a
    branch mispredict (default 8; 0 disables speculation).  Transient
    execution never changes architectural state — but its fetches and
    loads DO move cache lines, which is the Spectre-class residue the
    paper's §3.2 cites ([56] Kocher et al.).  A transient load whose
    address does not translate is suppressed with {e no} cache touch,
    which is why a Guillotine model core cannot leak hypervisor memory
    even speculatively: the address does not exist on its bus. *)

val set_timer : t -> interval:int -> unit
(** Arm the core-local timer: the timer interrupt (vector
    {!Guillotine_isa.Isa.vector_timer}) fires every [interval] cycles.
    0 disables.  Guests use it for preemptive scheduling of their own
    internal tasks — the hypervisor plays no role (§3.2: locally
    generated interrupts are handled without hypervisor assistance). *)

val raise_interrupt : t -> vector:int -> unit
(** Queue an interrupt for this core (the hypervisor's IO-completion
    signal, vector {!Guillotine_isa.Isa.vector_irq_reply}, or timer).
    Delivered before the next instruction once the core is running and
    not already in a handler. *)

val set_irq_sink : t -> (line:int -> unit) -> unit
(** Connect the [Irq] doorbell instruction to the machine's LAPIC; a
    model core without a sink executing [Irq] halts with
    [Unhandled_exception Bad_instruction] (no such wire exists). *)

val add_retire_hook : t -> (pc:int -> Guillotine_isa.Isa.instr -> unit) -> unit
(** Observe every retired instruction with the pc it retired from — the
    hardware trace port, readable only from the hypervisor side.
    Multiple hooks (probe monitor, flight recorder, …) coexist; they run
    in registration order. *)

val set_retire_hook : t -> (Guillotine_isa.Isa.instr -> unit) -> unit
(** Convenience wrapper over {!add_retire_hook} ignoring the pc. *)

(** {2:control Hypervisor control plane} *)

val pause : t -> unit
(** Force a running core to [Halted Forced_pause]; no-op otherwise. *)

val resume : t -> unit
(** Halted -> Running.  Resuming from a watchpoint halt steps over the
    triggering access without re-trapping. *)

val single_step : t -> bool
(** Execute exactly one instruction while remaining halted.  [false] if
    the core is not halted or is powered off. *)

val read_reg : t -> int -> int64
val write_reg : t -> int -> int64 -> unit
val get_pc : t -> int
val set_pc : t -> int -> unit
(** Register/pc access requires a halted core; raises [Invalid_argument]
    otherwise — the paper only grants inspection of {e halted} cores. *)

val set_watchpoint : t -> [ `Code of int | `Data of int ] -> unit
(** Virtual addresses.  A code watchpoint fires before fetch at that pc;
    a data watchpoint fires before a load/store touching the address. *)

val clear_watchpoint : t -> [ `Code of int | `Data of int ] -> unit
val watchpoints : t -> [ `Code of int | `Data of int ] list

val clear_microarch_state : t -> unit
(** Flush TLB, branch predictor, and the attached cache hierarchy —
    deletes anything a model tried to stash in microarchitectural
    covert channels (§3.2). *)

val power_down : t -> unit
(** Requires the core to be halted first. *)

val power_up : t -> reset_pc:int -> unit
(** Clears registers, returns the core to [Running] at [reset_pc]. *)

type context = {
  ctx_regs : int64 array;
  ctx_pc : int;
  ctx_epc : int;
  ctx_in_handler : bool;
}
(** The complete ISA-level execution context — what the paper's
    "inspect and modify the ISA-level state of a halted core" privilege
    covers.  Used by the machine-level snapshot/restore facility. *)

val save_context : t -> context
(** Requires a halted core; raises [Invalid_argument] otherwise. *)

val load_context : t -> context -> unit
(** Requires a halted core.  Pending interrupts are discarded (they
    belong to the timeline being replaced). *)

val halt_reason : t -> halt_reason option

val pp_status : Format.formatter -> status -> unit
