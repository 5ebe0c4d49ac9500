module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Mmu = Guillotine_memory.Mmu
module Tlb = Guillotine_memory.Tlb
module Cache = Guillotine_memory.Cache
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy

type kind = Model_core | Hypervisor_core

type halt_reason =
  | Halt_instruction
  | Forced_pause
  | Unhandled_exception of Isa.exn_cause
  | Watchpoint of int
  | Double_fault

type status = Running | Halted of halt_reason | Powered_off

(* ------------------------------------------------------------------ *)
(* Predecode fast path                                                *)
(* ------------------------------------------------------------------ *)

(* The interpreter memoises [Encoding.decode] in a per-core
   direct-mapped paddr-indexed table so a static instruction is decoded
   once, not once per cycle.  Correctness is generation-driven: every
   entry records the DRAM write generation it was filled under
   (see {!Guillotine_memory.Dram.generation}); a fetch that observes a
   newer generation revalidates the entry against the word it just
   fetched anyway (the fetch still goes through the cache hierarchy
   every cycle for the timing model), so self-modifying guests,
   fault-injected bit flips, and snapshot rollbacks can never execute a
   stale decode.  The fast path is simulated-cycle-invisible: only host
   time changes.

   GUILLOTINE_NO_PREDECODE=1 (or any value other than empty/"0") forces
   the always-decode slow path — the escape hatch the equivalence tests
   and the perf baseline measurements use. *)

let predecode_default =
  match Sys.getenv_opt "GUILLOTINE_NO_PREDECODE" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let predecode_enabled_flag = ref predecode_default
let set_predecode enabled = predecode_enabled_flag := enabled
let predecode_enabled () = !predecode_enabled_flag

let pd_slots = 4096 (* direct-mapped; must be a power of two *)
let pd_mask = pd_slots - 1

(* ------------------------------------------------------------------ *)
(* Cycle-attribution profiling                                         *)
(* ------------------------------------------------------------------ *)

(* Deterministic execution profiler: every simulated cycle a profiled
   core charges is attributed to a (basic block, cost class) pair in
   plain int-array accumulators — no allocation, no clocks, no hash
   tables on the retire path.  The discipline mirrors the predecode
   cache: profiling observes the interpreter, it never participates in
   it, so simulated cycles, cache movement and every architectural
   effect are byte-identical with profiling on or off.  When a core's
   [prof_on] flag is false the entire apparatus costs one predictable
   branch per step and per charge site.

   Attribution works per step: the explicit charge sites (fetch TLB
   lookup, fetch hierarchy read, data TLB lookup, data hierarchy
   read/write/flush, vector-table reads, the Irq doorbell) bank their
   costs into per-step pending fields; at the end of the step the
   pendings land in the current block's accumulators and whatever the
   cycle delta does not explain is the Execute residual (ALU latency,
   mul/div, branch resolution, fences).  Sum over all (block, class)
   cells therefore equals the core's cycle counter exactly for any
   interval profiled from its start.

   GUILLOTINE_PROFILE=1 turns profiling on for every subsequently
   created core — the CI lever proving zero simulated-cycle
   perturbation across the whole scenario matrix. *)

module Cost_class = Guillotine_util.Cost_class

let profile_default_flag =
  ref
    (match Sys.getenv_opt "GUILLOTINE_PROFILE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let set_profile_default enabled = profile_default_flag := enabled
let profile_default () = !profile_default_flag

let n_classes = Cost_class.count
let cc_fetch = Cost_class.index Cost_class.Fetch_decode
let cc_tlb = Cost_class.index Cost_class.Tlb_walk
let cc_mem = Cost_class.index Cost_class.Cache_data
let cc_exec = Cost_class.index Cost_class.Execute
let cc_exc = Cost_class.index Cost_class.Exception_dispatch
let cc_door = Cost_class.index Cost_class.Doorbell

(* Per-translated-instruction fetch site: the static PC plus the memoised
   translation/placement hints its fetches revalidate.  The hints are
   host-only accelerators — every probe either replicates the exact
   mutations of the function it short-circuits or falls back to it — so
   a translated fetch moves TLB/cache/cycle state bit-identically to
   [fetch_and_execute_fast]. *)
type jit_fc = {
  f_pc : int;
  f_vpage : int;
  mutable f_tlb_slot : int; (* hinted TLB entry index; -1 = unknown *)
  mutable f_mmu_gen : int;  (* Mmu generation f_paddr was computed under; -1 forces a walk *)
  mutable f_paddr : int;
  mutable f_io : bool;      (* paddr routes to the uncached IO region *)
  mutable f_set : int;      (* L1 placement of paddr (valid when not f_io) *)
  mutable f_tag : int;
  mutable f_way : int;      (* hinted L1 way *)
}

type t = {
  id : int;
  kind : kind;
  regs : int64 array;
  mutable pc : int;
  mutable epc : int;
  mutable status : status;
  mmu : Mmu.t;
  tlb : Tlb.t;
  bpred : Bpred.t;
  hierarchy : Hierarchy.t;
  mutable cycles : int;
  mutable instret : int;
  code_watch : (int, unit) Hashtbl.t;
  data_watch : (int, unit) Hashtbl.t;
  mutable skip_watch_at : int option; (* one-shot bypass after watchpoint resume *)
  mutable in_handler : bool;
  pending_irqs : int Queue.t; (* vector indices *)
  mutable irq_sink : (line:int -> unit) option;
  mutable retire_hooks : (pc:int -> Isa.instr -> unit) list; (* in call order *)
  mutable trapped : bool; (* set when the current instruction delivers an exception *)
  mutable timer_interval : int; (* 0 = disabled *)
  mutable timer_deadline : int; (* cycle count of the next tick *)
  mutable spec_depth : int; (* transient window after a mispredict *)
  mutable traps : int; (* exceptions delivered (handled or halting) *)
  mutable irqs_delivered : int;
  mutable microarch_clears : int;
  (* Predecode table (parallel arrays to keep entries unboxed-ish and
     the lookup free of record allocation). [pd_paddr.(slot) = -1] marks
     an empty slot. *)
  pd_paddr : int array;
  pd_gen : int array;
  pd_word : int64 array;
  pd_instr : Isa.instr array;
  pd_op : (t -> unit) array; (* [compile pd_instr.(slot)], built on fill *)
  mutable pd_hits : int;
  mutable pd_fills : int;
  (* Profiling plane.  [prof_block_of.(pc) = block id] for every pc of
     the installed image; pcs outside the map (and cores with no map)
     fall back to the pseudo-block [prof_nblocks].  [prof_cycles] is
     row-major (nblocks + 1) x n_classes; [prof_retired] counts retired
     instructions per block.  The prof_* pendings accumulate over the
     current block residency (opened at cycle [prof_cycle0]) and are
     banked by [prof_flush] on block transitions, readout, and disarm;
     meaningful only while [prof_on]. *)
  mutable prof_on : bool;
  mutable prof_block_of : int array;
  mutable prof_leaders : int array;
  mutable prof_nblocks : int;
  mutable prof_cycles : int array;
  mutable prof_retired : int array;
  mutable prof_block : int;
  mutable prof_cycle0 : int;  (* cycle count when the residency opened *)
  mutable prof_fetch : int;
  mutable prof_tlb : int;
  mutable prof_mem : int;
  mutable prof_exc : int;
  mutable prof_door : int;
  (* Threaded-code translation plane (see the block comment above
     [jit_run_block]).  [jit = None] until a hypervisor installs a block
     plan; the counters survive reinstalls. *)
  mutable jit : jit_state option;
  mutable jit_translations : int;
  mutable jit_invalidations : int;
  mutable jit_block_exits : int;
}

and jit_state = {
  j_plan : Jit.plan;
  j_block_at : int array; (* leader pc -> block id; -1 elsewhere *)
  j_blocks : jit_block option array; (* by block id; None = untranslated *)
  j_dead : bool array; (* translation failed; stop retrying until reinstall *)
}

and jit_block = {
  jb_leader : int;
  jb_words : int64 array; (* the words each op was compiled from *)
  jb_fcs : jit_fc array;  (* contiguous: f_pc of entry i+1 = f_pc of entry i + 1 *)
  jb_instrs : Isa.instr array;
  jb_ops : (t -> unit) array;
      (* [compile jb_instrs.(i)]: the execute phase only; fetch and
         revalidation live in the runner. *)
  jb_has_irq : bool;
      (* Block contains an [Irq] doorbell: its sink can queue an
         interrupt mid-block, so the runner must re-check exit
         conditions per instruction rather than once at entry. *)
  mutable jb_valid : bool;
}

(* Trap ABI register assignments. *)
let reg_cause = 13
let reg_badaddr = 12

let create ~id ~kind ~hierarchy ?tlb ?bpred ?mmu () =
  {
    id;
    kind;
    regs = Array.make Isa.num_regs 0L;
    pc = 0;
    epc = 0;
    status = Running;
    mmu = (match mmu with Some m -> m | None -> Mmu.create ());
    tlb = (match tlb with Some t -> t | None -> Tlb.create ());
    bpred = (match bpred with Some b -> b | None -> Bpred.create ());
    hierarchy;
    cycles = 0;
    instret = 0;
    code_watch = Hashtbl.create 4;
    data_watch = Hashtbl.create 4;
    skip_watch_at = None;
    in_handler = false;
    pending_irqs = Queue.create ();
    irq_sink = None;
    retire_hooks = [];
    trapped = false;
    timer_interval = 0;
    timer_deadline = 0;
    spec_depth = 8;
    traps = 0;
    irqs_delivered = 0;
    microarch_clears = 0;
    pd_paddr = Array.make pd_slots (-1);
    pd_gen = Array.make pd_slots 0;
    pd_word = Array.make pd_slots 0L;
    pd_instr = Array.make pd_slots Isa.Nop;
    pd_op = Array.make pd_slots ignore;
    pd_hits = 0;
    pd_fills = 0;
    prof_on = !profile_default_flag;
    prof_block_of = [||];
    prof_leaders = [||];
    prof_nblocks = 0;
    prof_cycles = Array.make n_classes 0;
    prof_retired = Array.make 1 0;
    prof_block = 0;
    prof_cycle0 = 0;
    prof_fetch = 0;
    prof_tlb = 0;
    prof_mem = 0;
    prof_exc = 0;
    prof_door = 0;
    jit = None;
    jit_translations = 0;
    jit_invalidations = 0;
    jit_block_exits = 0;
  }

let id t = t.id
let kind t = t.kind
let status t = t.status
let mmu t = t.mmu
let hierarchy t = t.hierarchy
let cycles t = t.cycles
let instructions_retired t = t.instret
let traps_taken t = t.traps
let interrupts_delivered t = t.irqs_delivered
let microarch_clears t = t.microarch_clears
let predecode_stats t = (t.pd_hits, t.pd_fills)

(* ------------------- profiling control & readout ------------------- *)

let profiling t = t.prof_on

(* Bank the current block residency: every cycle since [prof_cycle0]
   belongs to [prof_block], split into the explicitly banked class
   pendings with Execute as the unexplained residual.  Every pending
   increment is paired with a cycle charge of at least that amount, so
   the residual is never negative.  Called only on block transitions,
   on readout, and on disarm — not per step — which is what keeps the
   armed profiler's host overhead low. *)
let prof_flush t =
  let dcycles = t.cycles - t.prof_cycle0 in
  if dcycles > 0 then begin
    let a = t.prof_cycles in
    let base = t.prof_block * n_classes in
    a.(base + cc_fetch) <- a.(base + cc_fetch) + t.prof_fetch;
    a.(base + cc_tlb) <- a.(base + cc_tlb) + t.prof_tlb;
    a.(base + cc_mem) <- a.(base + cc_mem) + t.prof_mem;
    a.(base + cc_exc) <- a.(base + cc_exc) + t.prof_exc;
    a.(base + cc_door) <- a.(base + cc_door) + t.prof_door;
    a.(base + cc_exec) <-
      a.(base + cc_exec) + dcycles - t.prof_fetch - t.prof_tlb - t.prof_mem
      - t.prof_exc - t.prof_door
  end;
  t.prof_cycle0 <- t.cycles;
  t.prof_fetch <- 0;
  t.prof_tlb <- 0;
  t.prof_mem <- 0;
  t.prof_exc <- 0;
  t.prof_door <- 0

let set_profiling t enabled =
  (if t.prof_on && not enabled then prof_flush t
   else if enabled && not t.prof_on then begin
     (* Open the first residency at the current cycle count so nothing
        that ran before arming is attributed. *)
     t.prof_cycle0 <- t.cycles;
     t.prof_fetch <- 0;
     t.prof_tlb <- 0;
     t.prof_mem <- 0;
     t.prof_exc <- 0;
     t.prof_door <- 0
   end);
  t.prof_on <- enabled

let reset_profile t =
  Array.fill t.prof_cycles 0 (Array.length t.prof_cycles) 0;
  Array.fill t.prof_retired 0 (Array.length t.prof_retired) 0;
  t.prof_block <- t.prof_nblocks;
  t.prof_cycle0 <- t.cycles;
  t.prof_fetch <- 0;
  t.prof_tlb <- 0;
  t.prof_mem <- 0;
  t.prof_exc <- 0;
  t.prof_door <- 0

let set_profile_blocks t ~block_of ~leaders =
  let n = Array.length leaders in
  Array.iter
    (fun b ->
      if b < 0 || b > n then
        invalid_arg "Core.set_profile_blocks: block id out of range")
    block_of;
  t.prof_block_of <- Array.copy block_of;
  t.prof_leaders <- Array.copy leaders;
  t.prof_nblocks <- n;
  t.prof_cycles <- Array.make ((n + 1) * n_classes) 0;
  t.prof_retired <- Array.make (n + 1) 0;
  reset_profile t

let profile_nblocks t = t.prof_nblocks
let profile_leaders t = Array.copy t.prof_leaders

let profile_cycles t =
  (* Bank the open residency first so readout mid-run balances. *)
  if t.prof_on then prof_flush t;
  Array.copy t.prof_cycles

let profile_retired t = Array.copy t.prof_retired

(* Attribute externally charged cycles (hypervisor mediation, DMA) to
   this core's current block.  Host-side bookkeeping only: the caller
   has already charged the simulated cost wherever it belongs. *)
let profile_note t ~cls cycles =
  if t.prof_on && cycles > 0 then begin
    let i = (t.prof_block * n_classes) + Cost_class.index cls in
    t.prof_cycles.(i) <- t.prof_cycles.(i) + cycles
  end

let set_irq_sink t f = t.irq_sink <- Some f

(* Hooks are stored in call (registration) order so the retire path can
   iterate directly instead of List.rev-ing per retired instruction.
   Registration is rare; retirement is every instruction. *)
let add_retire_hook t f = t.retire_hooks <- t.retire_hooks @ [ f ]
let set_retire_hook t f = add_retire_hook t (fun ~pc:_ instr -> f instr)

let cause_code = function
  | Isa.Div_by_zero -> 0L
  | Isa.Page_fault _ -> 1L
  | Isa.Bad_instruction -> 2L
  | Isa.Watchpoint_hit _ -> 3L

let bad_addr_of = function
  | Isa.Page_fault a -> Int64.of_int a
  | Isa.Watchpoint_hit a -> Int64.of_int a
  | Isa.Div_by_zero | Isa.Bad_instruction -> 0L

(* Read a vector-table slot through the MMU (the table lives in guest
   memory at Isa.vector_base).  Returns the handler address or None when
   the slot is unmapped or zero. *)
let vector_entry t slot =
  let vaddr = Isa.vector_base + slot in
  let paddr = Mmu.translate_raw t.mmu ~addr:vaddr ~access:`R in
  if paddr < 0 then None
  else begin
    let v = Hierarchy.read_value t.hierarchy ~addr:paddr in
    let cost = Hierarchy.read_cost t.hierarchy in
    t.cycles <- t.cycles + cost;
    if t.prof_on then t.prof_exc <- t.prof_exc + cost;
    if v = 0L then None else Some (Int64.to_int v)
  end

(* Deliver an exception to the core-local vector, or halt.  A fault
   raised while already in a handler is a double fault: halt. *)
let deliver_exception t cause =
  t.trapped <- true;
  t.traps <- t.traps + 1;
  if t.in_handler then t.status <- Halted Double_fault
  else begin
    match vector_entry t (Isa.vector_of_cause cause) with
    | None -> t.status <- Halted (Unhandled_exception cause)
    | Some handler ->
      t.regs.(reg_cause) <- cause_code cause;
      t.regs.(reg_badaddr) <- bad_addr_of cause;
      t.epc <- t.pc;
      t.pc <- handler;
      t.in_handler <- true
  end

let deliver_irq t vector =
  match vector_entry t vector with
  | None -> () (* no handler installed: the interrupt is dropped *)
  | Some handler ->
    t.irqs_delivered <- t.irqs_delivered + 1;
    t.regs.(reg_cause) <- Int64.of_int (16 + vector);
    t.epc <- t.pc;
    t.pc <- handler;
    t.in_handler <- true

let raise_interrupt t ~vector = Queue.push vector t.pending_irqs

let set_timer t ~interval =
  if interval < 0 then invalid_arg "Core.set_timer: negative interval";
  t.timer_interval <- interval;
  t.timer_deadline <- t.cycles + interval

(* Page number for TLB indexing.  The shift is only equivalent to the
   legacy division for non-negative addresses; a guest-computed negative
   address must keep round-toward-zero semantics so TLB occupancy stays
   byte-identical to the legacy interpreter. *)
let vpage_of t addr =
  if addr >= 0 then addr lsr Mmu.page_shift t.mmu else addr / Mmu.page_size t.mmu

(* Translate + charge TLB and cache costs for a data access.  Returns
   the physical address, or delivers a page fault and returns a negative
   value.  Int-coded (not an option) so the per-instruction load/store
   path allocates nothing. *)
let translate_data t ~vaddr ~access =
  let vpage = vpage_of t vaddr in
  let tlb_cost = Tlb.lookup t.tlb ~vpage in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  let paddr = Mmu.translate_raw t.mmu ~addr:vaddr ~access in
  if paddr < 0 then deliver_exception t (Isa.Page_fault vaddr);
  paddr

(* Register indices come from decoded 4-bit fields and [num_regs] is 16,
   so they are in bounds by construction. *)
let reg_value t r = Array.unsafe_get t.regs r

let set_speculation_depth t depth =
  if depth < 0 then invalid_arg "Core.set_speculation_depth: negative";
  t.spec_depth <- depth

(* Transient execution down the mispredicted path.  Architectural state
   is never modified: computation uses a shadow register file, stores do
   not commit, and faults are suppressed.  What DOES happen is cache
   occupancy — transient fetches and loads touch the hierarchy, which is
   precisely the Spectre residue (§3.2's side-channel worry).  The walk
   ends at the window limit, any control transfer, a fault, or an
   undecodable word. *)
let transient_walk t ~start_pc =
  let shadow = Array.copy t.regs in
  let pc = ref start_pc in
  let continue = ref true in
  let steps = ref 0 in
  while !continue && !steps < t.spec_depth do
    incr steps;
    let paddr = Mmu.translate_raw t.mmu ~addr:!pc ~access:`X in
    if paddr < 0 then continue := false
    else begin
      (* The transient fetch warms the cache like a real one (cost
         discarded: transient work is not architecturally charged). *)
      let word = Hierarchy.read_value t.hierarchy ~addr:paddr in
      match Encoding.decode word with
      | None -> continue := false
      | Some instr -> (
        let open Isa in
        match instr with
        | Nop | Fence ->
          incr pc
        | Movi (rd, v) ->
          shadow.(rd) <- Int64.of_int v;
          incr pc
        | Movhi (rd, v) ->
          shadow.(rd) <- Int64.logor shadow.(rd) (Int64.shift_left (Int64.of_int v) 32);
          incr pc
        | Mov (rd, rs) ->
          shadow.(rd) <- shadow.(rs);
          incr pc
        | Add (rd, a, b) -> shadow.(rd) <- Int64.add shadow.(a) shadow.(b); incr pc
        | Sub (rd, a, b) -> shadow.(rd) <- Int64.sub shadow.(a) shadow.(b); incr pc
        | Mul (rd, a, b) -> shadow.(rd) <- Int64.mul shadow.(a) shadow.(b); incr pc
        | And_ (rd, a, b) -> shadow.(rd) <- Int64.logand shadow.(a) shadow.(b); incr pc
        | Or_ (rd, a, b) -> shadow.(rd) <- Int64.logor shadow.(a) shadow.(b); incr pc
        | Xor_ (rd, a, b) -> shadow.(rd) <- Int64.logxor shadow.(a) shadow.(b); incr pc
        | Shl (rd, a, b) ->
          shadow.(rd) <- Int64.shift_left shadow.(a) (Int64.to_int shadow.(b) land 63);
          incr pc
        | Shr (rd, a, b) ->
          shadow.(rd) <-
            Int64.shift_right_logical shadow.(a) (Int64.to_int shadow.(b) land 63);
          incr pc
        | Div (rd, a, b) | Rem (rd, a, b) ->
          if shadow.(b) = 0L then continue := false
          else begin
            shadow.(rd) <-
              (match instr with
              | Div _ -> Int64.div shadow.(a) shadow.(b)
              | _ -> Int64.rem shadow.(a) shadow.(b));
            incr pc
          end
        | Load (rd, rs, off) ->
          let vaddr = Int64.to_int shadow.(rs) + off in
          let lpaddr = Mmu.translate_raw t.mmu ~addr:vaddr ~access:`R in
          if lpaddr < 0 then
            (* Transient faults are suppressed — and crucially, a fault
               means NO cache touch: an unmapped secret cannot leak. *)
            continue := false
          else begin
            (* THE leak: the transient load moves a line whose address
               depends on transient data. *)
            shadow.(rd) <- Hierarchy.read_value t.hierarchy ~addr:lpaddr;
            incr pc
          end
        | Store _ ->
          (* Stores never commit transiently (no store buffer model). *)
          incr pc
        | Rdcycle rd ->
          shadow.(rd) <- Int64.of_int t.cycles;
          incr pc
        | Mfepc rd ->
          shadow.(rd) <- Int64.of_int t.epc;
          incr pc
        | Halt | Jmp _ | Jr _ | Jal _ | Beq _ | Bne _ | Blt _ | Bge _ | Irq _
        | Iret | Mtepc _ | Clflush _ ->
          continue := false)
    end
  done

let watch_data_hit t vaddr =
  Hashtbl.length t.data_watch > 0
  &&
  if Hashtbl.mem t.data_watch vaddr then
    if t.skip_watch_at = Some vaddr then begin
      t.skip_watch_at <- None;
      false
    end
    else true
  else false

(* Per-instruction helpers live at top level so the compiled ops close
   over their operands only, never over helper closures. *)
let next t = t.pc <- t.pc + 1

let[@inline] alu t rd v cost =
  Array.unsafe_set t.regs rd v;
  t.cycles <- t.cycles + cost;
  next t

(* Resolve a conditional branch at [t.pc].  The predictor counter is
   read and trained once, with the cost, training and correct/wrong
   stats {!Bpred.predict_and_update} would give.  On a mispredict the
   frontend has already run down the predicted path; replay that window
   transiently before the squash. *)
let branch t target taken =
  let pc = t.pc in
  let bp = t.bpred in
  let counters = bp.Bpred.counters in
  let bi = pc land (Array.length counters - 1) in
  let c0 = Array.unsafe_get counters bi in
  let predicted = c0 >= 2 in
  if predicted = taken then begin
    bp.Bpred.correct <- bp.Bpred.correct + 1;
    t.cycles <- t.cycles + 1
  end
  else begin
    bp.Bpred.wrong <- bp.Bpred.wrong + 1;
    t.cycles <- t.cycles + 1 + bp.Bpred.mispredict_penalty
  end;
  Array.unsafe_set counters bi
    (if taken then (if c0 < 3 then c0 + 1 else 3)
     else if c0 > 0 then c0 - 1
     else 0);
  if predicted <> taken && t.spec_depth > 0 then
    transient_walk t ~start_pc:(if predicted then target else pc + 1);
  t.pc <- (if taken then target else pc + 1)

(* The one copy of GRISC semantics: compile an instruction into the op
   every dispatcher runs — the predecode cache stores it per slot, a
   translated block per instruction, and the decode-every-fetch
   reference builds it per fetch.  An op runs after the fetch has been
   charged, with [t.pc] still pointing at the instruction; it advances
   [t.pc] or diverts it (jumps, branches, [deliver_exception]).
   Constants are boxed here, once, and nothing depends on where the
   instruction sits, so an op can be cached by paddr. *)
let compile instr : t -> unit =
  let open Isa in
  match instr with
  | Nop ->
    fun t ->
      t.cycles <- t.cycles + 1;
      next t
  | Halt -> fun t -> t.status <- Halted Halt_instruction
  | Movi (rd, v) ->
    let v = Int64.of_int v in
    fun t -> alu t rd v 1
  | Movhi (rd, v) ->
    let hi = Int64.shift_left (Int64.of_int v) 32 in
    fun t -> alu t rd (Int64.logor (reg_value t rd) hi) 1
  | Mov (rd, rs) -> fun t -> alu t rd (reg_value t rs) 1
  | Add (rd, a, b) -> fun t -> alu t rd (Int64.add (reg_value t a) (reg_value t b)) 1
  | Sub (rd, a, b) -> fun t -> alu t rd (Int64.sub (reg_value t a) (reg_value t b)) 1
  | Mul (rd, a, b) ->
    (* multipliers are slower: 2 cycles on top of the ALU's 1 *)
    fun t -> alu t rd (Int64.mul (reg_value t a) (reg_value t b)) 3
  | Div (rd, a, b) ->
    (* the divider: 10 cycles on top of the ALU's 1 *)
    fun t ->
      let d = reg_value t b in
      if Int64.equal d 0L then deliver_exception t Div_by_zero
      else alu t rd (Int64.div (reg_value t a) d) 11
  | Rem (rd, a, b) ->
    fun t ->
      let d = reg_value t b in
      if Int64.equal d 0L then deliver_exception t Div_by_zero
      else alu t rd (Int64.rem (reg_value t a) d) 11
  | And_ (rd, a, b) ->
    fun t -> alu t rd (Int64.logand (reg_value t a) (reg_value t b)) 1
  | Or_ (rd, a, b) -> fun t -> alu t rd (Int64.logor (reg_value t a) (reg_value t b)) 1
  | Xor_ (rd, a, b) ->
    fun t -> alu t rd (Int64.logxor (reg_value t a) (reg_value t b)) 1
  | Shl (rd, a, b) ->
    fun t ->
      alu t rd
        (Int64.shift_left (reg_value t a) (Int64.to_int (reg_value t b) land 63))
        1
  | Shr (rd, a, b) ->
    fun t ->
      alu t rd
        (Int64.shift_right_logical (reg_value t a)
           (Int64.to_int (reg_value t b) land 63))
        1
  | Load (rd, rs, off) ->
    fun t ->
      let vaddr = Int64.to_int (reg_value t rs) + off in
      if watch_data_hit t vaddr then t.status <- Halted (Watchpoint vaddr)
      else begin
        let paddr = translate_data t ~vaddr ~access:`R in
        if paddr >= 0 then begin
          Array.unsafe_set t.regs rd (Hierarchy.read_value t.hierarchy ~addr:paddr);
          let cost = Hierarchy.read_cost t.hierarchy in
          t.cycles <- t.cycles + cost;
          if t.prof_on then t.prof_mem <- t.prof_mem + cost;
          next t
        end
      end
  | Store (rd, rs, off) ->
    fun t ->
      let vaddr = Int64.to_int (reg_value t rd) + off in
      if watch_data_hit t vaddr then t.status <- Halted (Watchpoint vaddr)
      else begin
        let paddr = translate_data t ~vaddr ~access:`W in
        if paddr >= 0 then begin
          let cost = Hierarchy.write t.hierarchy ~addr:paddr (reg_value t rs) in
          t.cycles <- t.cycles + cost;
          if t.prof_on then t.prof_mem <- t.prof_mem + cost;
          next t
        end
      end
  | Jmp a ->
    fun t ->
      t.cycles <- t.cycles + 1;
      t.pc <- a
  | Jr rs ->
    fun t ->
      t.cycles <- t.cycles + 1;
      t.pc <- Int64.to_int (reg_value t rs)
  | Jal (rd, a) ->
    fun t ->
      Array.unsafe_set t.regs rd (Int64.of_int (t.pc + 1));
      t.cycles <- t.cycles + 1;
      t.pc <- a
  | Beq (a, b, tgt) ->
    fun t -> branch t tgt (Int64.equal (reg_value t a) (reg_value t b))
  | Bne (a, b, tgt) ->
    fun t -> branch t tgt (not (Int64.equal (reg_value t a) (reg_value t b)))
  | Blt (a, b, tgt) ->
    fun t -> branch t tgt (Int64.compare (reg_value t a) (reg_value t b) < 0)
  | Bge (a, b, tgt) ->
    fun t -> branch t tgt (Int64.compare (reg_value t a) (reg_value t b) >= 0)
  | Irq line ->
    fun t -> (
      match t.irq_sink with
      | None -> deliver_exception t Bad_instruction
      | Some sink ->
        t.cycles <- t.cycles + 5;
        if t.prof_on then t.prof_door <- t.prof_door + 5;
        sink ~line;
        next t)
  | Iret ->
    fun t ->
      if not t.in_handler then deliver_exception t Bad_instruction
      else begin
        t.in_handler <- false;
        t.cycles <- t.cycles + 2;
        t.pc <- t.epc
      end
  | Rdcycle rd -> fun t -> alu t rd (Int64.of_int t.cycles) 1
  | Mfepc rd ->
    (* Only meaningful inside a handler, but harmless elsewhere. *)
    fun t -> alu t rd (Int64.of_int t.epc) 1
  | Mtepc rs ->
    fun t ->
      if not t.in_handler then deliver_exception t Bad_instruction
      else begin
        t.epc <- Int64.to_int (reg_value t rs);
        t.cycles <- t.cycles + 1;
        next t
      end
  | Clflush (rs, off) ->
    fun t ->
      let vaddr = Int64.to_int (reg_value t rs) + off in
      let paddr = translate_data t ~vaddr ~access:`R in
      if paddr >= 0 then begin
        Hierarchy.flush_line t.hierarchy ~addr:paddr;
        t.cycles <- t.cycles + 20;
        if t.prof_on then t.prof_mem <- t.prof_mem + 20;
        next t
      end
  | Fence ->
    fun t ->
      t.cycles <- t.cycles + 15;
      next t

let code_watch_hit t =
  (* [Hashtbl.length] is a field read: with no watchpoints armed (the
     overwhelmingly common case) the per-fetch check costs no hashing. *)
  Hashtbl.length t.code_watch > 0
  &&
  if Hashtbl.mem t.code_watch t.pc then
    if t.skip_watch_at = Some t.pc then begin
      t.skip_watch_at <- None;
      false
    end
    else true
  else false

(* A top-level loop, not [List.iter] over a local closure: a function
   that defines a closure cannot be inlined, and [run_and_retire] is
   inlined into every dispatcher. *)
let rec call_retire_hooks hooks pc instr =
  match hooks with
  | [] -> ()
  | hook :: rest ->
    hook ~pc instr;
    call_retire_hooks rest pc instr

(* Run the compiled [op] of [instr] and account its retirement: the one
   retire path of every dispatcher. *)
let[@inline] run_and_retire t op instr =
  let retired_pc = t.pc in
  t.trapped <- false;
  op t;
  (* A trapping instruction does not retire: it neither counts nor
     reaches the trace port (its handler's instructions will). *)
  if not t.trapped then begin
    t.instret <- t.instret + 1;
    if t.prof_on then
      t.prof_retired.(t.prof_block) <- t.prof_retired.(t.prof_block) + 1;
    match t.retire_hooks with
    | [] -> ()
    | hooks -> call_retire_hooks hooks retired_pc instr
  end

(* Profiling preamble of every fetch, interpreted or translated: on a
   block transition, bank the finished residency and point at the block
   owning [pc], the pc about to be fetched.  Interrupt and exception
   dispatch charge their vector-read cost before the pc lands here, so
   dispatch cycles are attributed to the interrupted (or faulting)
   block — the block that incurred them. *)
let prof_enter t pc =
  let b =
    if pc >= 0 && pc < Array.length t.prof_block_of then t.prof_block_of.(pc)
    else t.prof_nblocks
  in
  if b <> t.prof_block then begin
    prof_flush t;
    t.prof_block <- b
  end

(* Predecode lookup for the word just fetched from [paddr].  A slot hits
   when it was filled for this paddr AND either (a) no DRAM write has
   happened since it was last validated (generation match) or (b) the
   freshly fetched word is unchanged — in which case the entry is
   re-stamped with the current generation so subsequent fetches take the
   pure generation fast path again. *)
let predecode_hit t slot paddr word gen =
  t.pd_paddr.(slot) = paddr
  && (t.pd_gen.(slot) = gen
     ||
     if Int64.equal t.pd_word.(slot) word then begin
       t.pd_gen.(slot) <- gen;
       true
     end
     else false)

(* The fast fetch path: non-allocating translate, non-allocating
   hierarchy read, predecoded instruction on hit. *)
let fetch_and_execute_fast t =
  let vpage = vpage_of t t.pc in
  let tlb_cost = Tlb.lookup t.tlb ~vpage in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  let paddr = Mmu.translate_raw t.mmu ~addr:t.pc ~access:`X in
  if paddr < 0 then deliver_exception t (Isa.Page_fault t.pc)
  else begin
    (* The fetch itself always goes through the hierarchy: cache-state
       movement and the fetch's cycle cost are part of the timing
       model the predecode cache must not perturb. *)
    let word = Hierarchy.read_value t.hierarchy ~addr:paddr in
    let fetch_cost = Hierarchy.read_cost t.hierarchy in
    t.cycles <- t.cycles + fetch_cost;
    if t.prof_on then t.prof_fetch <- t.prof_fetch + fetch_cost;
    let slot = paddr land pd_mask in
    let gen = Hierarchy.write_generation t.hierarchy in
    if predecode_hit t slot paddr word gen then begin
      (* Hot path: zero allocation — no decode, no compile, no option. *)
      t.pd_hits <- t.pd_hits + 1;
      run_and_retire t t.pd_op.(slot) t.pd_instr.(slot)
    end
    else begin
      match Encoding.decode word with
      | None -> deliver_exception t Isa.Bad_instruction
      | Some instr ->
        let op = compile instr in
        t.pd_paddr.(slot) <- paddr;
        t.pd_gen.(slot) <- gen;
        t.pd_word.(slot) <- word;
        t.pd_instr.(slot) <- instr;
        t.pd_op.(slot) <- op;
        t.pd_fills <- t.pd_fills + 1;
        run_and_retire t op instr
    end
  end

(* The pre-fast-path interpreter, preserved in shape:
   option/result-returning translate, tuple-returning [Hierarchy.read],
   [Encoding.decode] and [compile] every fetch.  GUILLOTINE_NO_PREDECODE
   selects it;
   it is the reference implementation the equivalence suite compares the
   fast path against and the baseline the P1 host-perf numbers are
   measured from.  It also keeps the allocating wrapper APIs exercised. *)
let fetch_and_execute_legacy t =
  let vpage = t.pc / Mmu.page_size t.mmu in
  let tlb_cost = Tlb.lookup t.tlb ~vpage in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  match Mmu.translate t.mmu ~addr:t.pc ~access:`X with
  | Error _ -> deliver_exception t (Isa.Page_fault t.pc)
  | Ok paddr -> (
    let word, cost = Hierarchy.read t.hierarchy ~addr:paddr in
    t.cycles <- t.cycles + cost;
    if t.prof_on then t.prof_fetch <- t.prof_fetch + cost;
    match Encoding.decode word with
    | None -> deliver_exception t Isa.Bad_instruction
    | Some instr -> run_and_retire t (compile instr) instr)

let fetch_and_execute t =
  (* Code watchpoint: trap before fetch. *)
  if code_watch_hit t then t.status <- Halted (Watchpoint t.pc)
  else begin
    if t.prof_on then prof_enter t t.pc;
    if !predecode_enabled_flag then fetch_and_execute_fast t
    else fetch_and_execute_legacy t
  end

let step_body t =
  (* Core-local timer: architecturally just another interrupt.  Ticks
     that land while a handler runs (or while one is already queued)
     are coalesced away, as a real local timer's level signal would
     be. *)
  if
    t.timer_interval > 0
    && t.cycles >= t.timer_deadline
    && (not t.in_handler)
    && Queue.is_empty t.pending_irqs
  then begin
    t.timer_deadline <- t.cycles + t.timer_interval;
    Queue.push Isa.vector_timer t.pending_irqs
  end;
  (* Deliver one pending interrupt if we're not inside a handler. *)
  if (not t.in_handler) && not (Queue.is_empty t.pending_irqs) then
    deliver_irq t (Queue.pop t.pending_irqs);
  match t.status with
  | Running -> fetch_and_execute t
  | Halted _ | Powered_off -> ()

let step t =
  match t.status with
  | Halted _ | Powered_off -> false
  | Running ->
    step_body t;
    true

(* ------------------------------------------------------------------ *)
(* Threaded-code block translation                                    *)
(* ------------------------------------------------------------------ *)

(* The predecode cache (above) killed the decode cost; what is left of
   the dispatch overhead is paid once per *instruction*: the step loop,
   the status/timer/irq checks, the full TLB scan, the MMU walk, the
   L1 way scan.  The translation plane kills that too.  At
   [Hypervisor.install_program] time the vet layer's CFG recovery hands
   over a block plan ({!Jit.plan}); each basic block keeps the ops
   [compile] built for its instructions — the very ops the interpreter
   runs, so there is one semantics and two dispatchers — and
   [jit_run_block] runs them back to back with a single dispatch per
   block entry.

   The contract is the same as the predecode cache's, only stricter
   because the fetch is inlined: translated execution is simulated-state
   invisible.  Per instruction the runner still takes a TLB lookup, an
   MMU translation, a hierarchy fetch and the word-level revalidation —
   each either via the original function or via a hint probe that
   replicates that function's mutations exactly — so cycle counts,
   cache/TLB/predictor movement, profile residencies, trap ordering and
   watchpoint behaviour are byte-identical to the interpreter.  The
   equivalence suite diffs end states and scenario goldens across
   GUILLOTINE_NO_JIT to enforce this.

   Self-modification safety is word-granular rather than
   generation-granular: every translated fetch compares the word the
   hierarchy just returned against the word the op was compiled from
   (the same discipline the predecode cache applies after a
   [Dram.generation] bump).  Any mismatch — DMA patch, fault-injected
   bit flip, snapshot restore, store to own code — invalidates the
   translation and executes the fresh word through the interpreter;
   the block is recompiled lazily on its next entry. *)

let jit_fc_make t pc =
  {
    f_pc = pc;
    f_vpage = vpage_of t pc;
    f_tlb_slot = -1;
    f_mmu_gen = -1;
    f_paddr = -1;
    f_io = false;
    f_set = 0;
    f_tag = 0;
    f_way = 0;
  }

(* Fetch the word at a translated site, charging exactly what
   [fetch_and_execute_fast] charges before its decode step: TLB lookup
   cost, then the hierarchy fetch cost.  On a fetch page fault the
   exception is delivered here and [t.trapped] tells the runner.  The
   hint probes are safe because TLB vpages are unique across valid
   entries and cache tags are unique within a set. *)
let jit_fetch t fc =
  let tlb = t.tlb in
  let slot = fc.f_tlb_slot in
  let tlb_cost =
    if
      slot >= 0
      && (Array.unsafe_get tlb.Tlb.entries slot).Tlb.vpage = fc.f_vpage
    then begin
      (* Replicates Tlb.lookup's hit path: clock, hit counter, stamp. *)
      tlb.Tlb.clock <- tlb.Tlb.clock + 1;
      tlb.Tlb.hits <- tlb.Tlb.hits + 1;
      (Array.unsafe_get tlb.Tlb.entries slot).Tlb.stamp <- tlb.Tlb.clock;
      tlb.Tlb.hit_cost
    end
    else begin
      let c = Tlb.lookup tlb ~vpage:fc.f_vpage in
      fc.f_tlb_slot <- Tlb.slot_of tlb ~vpage:fc.f_vpage;
      c
    end
  in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  (if fc.f_mmu_gen <> t.mmu.Mmu.gen then begin
     let paddr = Mmu.translate_raw t.mmu ~addr:fc.f_pc ~access:`X in
     fc.f_mmu_gen <- t.mmu.Mmu.gen;
     fc.f_paddr <- paddr;
     if paddr >= 0 then begin
       let h = t.hierarchy in
       if paddr >= h.Hierarchy.io_base_addr then fc.f_io <- true
       else begin
         fc.f_io <- false;
         fc.f_set <- Cache.set_of_addr h.Hierarchy.l1 paddr;
         fc.f_tag <- Cache.tag_of_addr h.Hierarchy.l1 paddr;
         fc.f_way <- 0
       end
     end
   end);
  let paddr = fc.f_paddr in
  if paddr < 0 then begin
    deliver_exception t (Isa.Page_fault fc.f_pc);
    0L
  end
  else begin
    let h = t.hierarchy in
    if fc.f_io then begin
      let c = h.Hierarchy.io_cost in
      h.Hierarchy.cycles <- h.Hierarchy.cycles + c;
      h.Hierarchy.last_cost <- c;
      let word = Dram.read h.Hierarchy.io_dram (paddr - h.Hierarchy.io_base_addr) in
      t.cycles <- t.cycles + c;
      if t.prof_on then t.prof_fetch <- t.prof_fetch + c;
      word
    end
    else begin
      let l1 = h.Hierarchy.l1 in
      let ways = Array.unsafe_get l1.Cache.ways fc.f_set in
      let way = Array.unsafe_get ways fc.f_way in
      let c =
        if way.Cache.tag = fc.f_tag then begin
          (* Replicates Cache.access's hit path at L1: clock, hit
             counter, LRU stamp; lower levels are untouched on a hit. *)
          l1.Cache.clock <- l1.Cache.clock + 1;
          l1.Cache.hits <- l1.Cache.hits + 1;
          way.Cache.stamp <- l1.Cache.clock;
          l1.Cache.cfg.Cache.hit_cost
        end
        else begin
          let c = Cache.access l1 ~addr:paddr in
          let wi = Cache.way_of l1 ~set:fc.f_set ~tag:fc.f_tag in
          fc.f_way <- (if wi >= 0 then wi else 0);
          c
        end
      in
      (* Field order matches Hierarchy.read_value: hierarchy cycle
         accounting lands before the DRAM read (which can raise
         Bus_error on a simulator bug). *)
      h.Hierarchy.cycles <- h.Hierarchy.cycles + c;
      h.Hierarchy.last_cost <- c;
      let data = h.Hierarchy.dram.Dram.data in
      let word =
        (* paddr >= 0 was established above; the slow path exists only
           to raise the same Bus_error Dram.read would. *)
        if paddr < Array.length data then Array.unsafe_get data paddr
        else Dram.read h.Hierarchy.dram paddr
      in
      t.cycles <- t.cycles + c;
      if t.prof_on then t.prof_fetch <- t.prof_fetch + c;
      word
    end
  end

(* The fetched word no longer matches the word this block was compiled
   from: drop the translation and run the word the machine actually
   fetched through the interpreter — the same word-compare discipline
   the predecode cache applies after a generation bump. *)
let jit_diverge t jb word =
  jb.jb_valid <- false;
  t.jit_invalidations <- t.jit_invalidations + 1;
  match Encoding.decode word with
  | None -> deliver_exception t Isa.Bad_instruction
  | Some instr -> run_and_retire t (compile instr) instr

(* Compile block [b] from the words currently in DRAM.  Host-side only:
   reads go straight to DRAM (no cache, TLB or cycle movement) and the
   MMU walk is the memoised no-cost [translate_raw].  Returns None — and
   marks the block dead until the next install — when the block is
   empty, lands in unmapped/IO/out-of-range memory, breaks pc
   contiguity, or contains an undecodable word; those blocks simply
   stay on the interpreter. *)
let jit_translate_block t js b =
  if Array.unsafe_get js.j_dead b then None
  else begin
    let pcs = js.j_plan.Jit.pcs.(b) in
    let n = Array.length pcs in
    let dram = t.hierarchy.Hierarchy.dram in
    let dram_size = Dram.size dram in
    let words = Array.make n 0L in
    let instrs = Array.make n Isa.Nop in
    let ok = ref (n > 0) in
    let i = ref 0 in
    while !ok && !i < n do
      let pc = pcs.(!i) in
      if !i > 0 && pc <> pcs.(!i - 1) + 1 then ok := false
      else begin
        let paddr = Mmu.translate_raw t.mmu ~addr:pc ~access:`X in
        if
          paddr < 0
          || paddr >= t.hierarchy.Hierarchy.io_base_addr
          || paddr >= dram_size
        then ok := false
        else begin
          let word = Dram.read dram paddr in
          match Encoding.decode word with
          | None -> ok := false
          | Some instr ->
            words.(!i) <- word;
            instrs.(!i) <- instr;
            incr i
        end
      end
    done;
    if not !ok then begin
      js.j_dead.(b) <- true;
      None
    end
    else begin
      let jb =
        {
          jb_leader = pcs.(0);
          jb_words = words;
          jb_fcs = Array.map (fun pc -> jit_fc_make t pc) pcs;
          jb_instrs = instrs;
          jb_ops = Array.map compile instrs;
          jb_has_irq =
            Array.exists
              (fun instr -> match instr with Isa.Irq _ -> true | _ -> false)
              instrs;
          jb_valid = true;
        }
      in
      js.j_blocks.(b) <- Some jb;
      t.jit_translations <- t.jit_translations + 1;
      Some jb
    end
  end

(* Execute a translated block starting at its leader (the caller has
   checked [t.pc = jb_leader], Running status, no armed timer, no
   pending interrupt, no code watchpoints).  Per instruction: re-check
   the exit conditions (an op's irq sink or retire hook can arm them
   mid-block), profile block transition, fetch + revalidate the word,
   then the compiled op and its retirement.  Control stays in the block
   while the op left the core Running, untrapped, at the next
   sequential pc — whether it fell through or jumped there; a back-edge
   to our own leader re-enters without a dispatch round trip; anything
   else exits.  Returns retired step count.

   The only instruction-level escapes from straight-line execution
   that this rule does not catch are an irq-sink call (the [Irq] op
   falls through after ringing the doorbell, and the next instruction
   must first deliver the now-pending interrupt) and a retire hook
   (which may pause the core, arm a watchpoint, raise an
   interrupt...).  When the block has no [Irq] and the core has no
   retire hooks, neither exists, so the entry-time checks the caller
   performed stay true for the whole block and the per-instruction
   guard reduces to the fuel and cycle-target compares. *)
let jit_run_block t jb ~fuel ~target =
  let ops = jb.jb_ops in
  let instrs = jb.jb_instrs in
  let fcs = jb.jb_fcs in
  let words = jb.jb_words in
  let n = Array.length ops in
  let quiet =
    (match t.retire_hooks with [] -> true | _ :: _ -> false)
    && not jb.jb_has_irq
  in
  (* Loop-invariant structure hoists for the inlined fetch fast path
     below: a core's tlb/hierarchy/mmu bindings are immutable fields,
     so no op can swap them mid-block. *)
  let tlb = t.tlb in
  let tlb_entries = tlb.Tlb.entries in
  let tlb_hit_cost = tlb.Tlb.hit_cost in
  let mmu = t.mmu in
  let h = t.hierarchy in
  let l1 = h.Hierarchy.l1 in
  let l1_ways = l1.Cache.ways in
  let l1_hit_cost = l1.Cache.cfg.Cache.hit_cost in
  let data = h.Hierarchy.dram.Dram.data in
  let data_len = Array.length data in
  let steps = ref 0 in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    if
      !steps >= fuel
      || t.cycles >= target
      || ((not quiet)
          && (t.timer_interval <> 0
             || (not (Queue.is_empty t.pending_irqs))
             || Hashtbl.length t.code_watch <> 0
             || (match t.status with
                | Running -> false
                | Halted _ | Powered_off -> true)))
    then continue := false
    else begin
      incr steps;
      let fc = Array.unsafe_get fcs !i in
      let pc = fc.f_pc in
      if t.prof_on then prof_enter t pc;
      t.trapped <- false;
      (* Inlined [jit_fetch] for the every-hint-valid case (TLB slot
         hit, MMU generation unchanged, cached paddr in model DRAM, L1
         way hit).  The checks are pure; the mutation sequence below —
         TLB clock/hits/stamp, core tlb-cost cycles, L1 clock/hits/
         stamp, hierarchy cycles/last_cost, core fetch-cost cycles —
         replicates Tlb.lookup + Cache.access + Hierarchy.read_value in
         exactly the interpreter's order.  Anything short of a full hit
         takes the general path. *)
      let slot = fc.f_tlb_slot in
      let w =
        if
          slot >= 0
          && (Array.unsafe_get tlb_entries slot).Tlb.vpage = fc.f_vpage
          && fc.f_mmu_gen = mmu.Mmu.gen
          && (not fc.f_io)
          && fc.f_paddr >= 0
          && fc.f_paddr < data_len
        then begin
          tlb.Tlb.clock <- tlb.Tlb.clock + 1;
          tlb.Tlb.hits <- tlb.Tlb.hits + 1;
          (Array.unsafe_get tlb_entries slot).Tlb.stamp <- tlb.Tlb.clock;
          t.cycles <- t.cycles + tlb_hit_cost;
          if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_hit_cost;
          let ways = Array.unsafe_get l1_ways fc.f_set in
          let way = Array.unsafe_get ways fc.f_way in
          let c =
            if way.Cache.tag = fc.f_tag then begin
              l1.Cache.clock <- l1.Cache.clock + 1;
              l1.Cache.hits <- l1.Cache.hits + 1;
              way.Cache.stamp <- l1.Cache.clock;
              l1_hit_cost
            end
            else begin
              let c = Cache.access l1 ~addr:fc.f_paddr in
              let wi = Cache.way_of l1 ~set:fc.f_set ~tag:fc.f_tag in
              fc.f_way <- (if wi >= 0 then wi else 0);
              c
            end
          in
          h.Hierarchy.cycles <- h.Hierarchy.cycles + c;
          h.Hierarchy.last_cost <- c;
          let word = Array.unsafe_get data fc.f_paddr in
          t.cycles <- t.cycles + c;
          if t.prof_on then t.prof_fetch <- t.prof_fetch + c;
          word
        end
        else jit_fetch t fc
      in
      if t.trapped then continue := false
      else if not (Int64.equal w (Array.unsafe_get words !i)) then begin
        jit_diverge t jb w;
        continue := false
      end
      else begin
        run_and_retire t (Array.unsafe_get ops !i) (Array.unsafe_get instrs !i);
        let running =
          match t.status with Running -> true | Halted _ | Powered_off -> false
        in
        if t.pc = pc + 1 && (not t.trapped) && running then begin
          incr i;
          if !i >= n then continue := false (* fell through to the next block *)
        end
        else if t.pc = jb.jb_leader && jb.jb_valid && running then i := 0
        else continue := false
      end
    end
  done;
  !steps

(* One dispatch: if the current pc leads a translated (or translatable)
   block, run it and return the steps retired; 0 means the caller must
   interpret. *)
let jit_dispatch t ~fuel ~target =
  match t.jit with
  | None -> 0
  | Some js ->
    let pc = t.pc in
    if pc < 0 || pc >= Array.length js.j_block_at then 0
    else begin
      let b = Array.unsafe_get js.j_block_at pc in
      if b < 0 then 0
      else begin
        let jb_opt =
          match Array.unsafe_get js.j_blocks b with
          | Some jb when jb.jb_valid -> Some jb
          | Some _ | None -> jit_translate_block t js b
        in
        match jb_opt with
        | None -> 0
        | Some jb ->
          let steps = jit_run_block t jb ~fuel ~target in
          t.jit_block_exits <- t.jit_block_exits + 1;
          steps
      end
    end

let set_jit enabled = Jit.set_enabled enabled
let jit_enabled () = Jit.enabled ()

let jit_stats t =
  {
    Jit.translations = t.jit_translations;
    invalidations = t.jit_invalidations;
    block_exits = t.jit_block_exits;
  }

let install_jit t (plan : Jit.plan) =
  let nblocks = Array.length plan.Jit.leaders in
  let block_at = Array.make (max plan.Jit.code_words 1) (-1) in
  Array.iteri
    (fun b leader ->
      if leader >= 0 && leader < Array.length block_at then
        block_at.(leader) <- b)
    plan.Jit.leaders;
  let js =
    {
      j_plan = plan;
      j_block_at = block_at;
      j_blocks = Array.make (max nblocks 1) None;
      j_dead = Array.make (max nblocks 1) false;
    }
  in
  t.jit <- Some js;
  if !Jit.enabled_flag then begin
    (* Eager translation, hottest blocks first when this core carries
       profile data for a matching block map (i.e. a reinstall of a
       profiled image); fresh installs rank as identity.  Order — like
       everything else in this plane — is host-side only. *)
    let hot = Array.make (max nblocks 1) 0 in
    if t.prof_nblocks = nblocks && Array.length t.prof_cycles >= nblocks * n_classes
    then
      for b = 0 to nblocks - 1 do
        let base = b * n_classes in
        let s = ref 0 in
        for c = 0 to n_classes - 1 do
          s := !s + t.prof_cycles.(base + c)
        done;
        hot.(b) <- !s
      done;
    Array.iter
      (fun b -> ignore (jit_translate_block t js b))
      (Jit.rank plan ~hot)
  end

let exec_loop t ~fuel ~target =
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    if !executed >= fuel || t.cycles >= target then continue := false
    else begin
      match t.status with
      | Halted _ | Powered_off -> continue := false
      | Running ->
        let steps =
          if
            !Jit.enabled_flag
            && t.timer_interval = 0
            && Queue.is_empty t.pending_irqs
            && Hashtbl.length t.code_watch = 0
          then jit_dispatch t ~fuel:(fuel - !executed) ~target
          else 0
        in
        if steps > 0 then executed := !executed + steps
        else begin
          step_body t;
          incr executed
        end
    end
  done;
  !executed

let run t ~fuel = exec_loop t ~fuel ~target:max_int

(* Batched inner loop: advance this core by at least [cycles] simulated
   cycles (instruction granularity — the final instruction may overshoot
   the target, exactly as a fuel-bounded run would).  The driver loop
   stays inside the core instead of bouncing through the scheduler per
   instruction. *)
let run_cycles t ~cycles =
  if cycles < 0 then invalid_arg "Core.run_cycles: negative cycle budget";
  exec_loop t ~fuel:max_int ~target:(t.cycles + cycles)

(* ------------------------------------------------------------------ *)
(* Hypervisor control plane                                           *)
(* ------------------------------------------------------------------ *)

let pause t = match t.status with Running -> t.status <- Halted Forced_pause | _ -> ()

let resume t =
  match t.status with
  | Halted (Watchpoint a) ->
    t.skip_watch_at <- Some a;
    t.status <- Running
  | Halted _ -> t.status <- Running
  | Running | Powered_off -> ()

let single_step t =
  match t.status with
  | Halted reason ->
    (match reason with
    | Watchpoint a -> t.skip_watch_at <- Some a
    | _ -> ());
    t.status <- Running;
    let stepped = step t in
    (match t.status with
    | Running -> t.status <- Halted Forced_pause
    | Halted _ | Powered_off -> ());
    stepped
  | Running | Powered_off -> false

let require_halted t op =
  match t.status with
  | Halted _ | Powered_off -> ()
  | Running -> invalid_arg (Printf.sprintf "Core.%s: core %d is running" op t.id)

let read_reg t r =
  require_halted t "read_reg";
  t.regs.(r)

let write_reg t r v =
  require_halted t "write_reg";
  t.regs.(r) <- v

let get_pc t =
  require_halted t "get_pc";
  t.pc

let set_pc t pc =
  require_halted t "set_pc";
  t.pc <- pc

let set_watchpoint t = function
  | `Code a -> Hashtbl.replace t.code_watch a ()
  | `Data a -> Hashtbl.replace t.data_watch a ()

let clear_watchpoint t = function
  | `Code a -> Hashtbl.remove t.code_watch a
  | `Data a -> Hashtbl.remove t.data_watch a

let watchpoints t =
  Hashtbl.fold (fun a () acc -> `Code a :: acc) t.code_watch []
  @ Hashtbl.fold (fun a () acc -> `Data a :: acc) t.data_watch []

let clear_microarch_state t =
  t.microarch_clears <- t.microarch_clears + 1;
  Tlb.flush t.tlb;
  Bpred.reset t.bpred;
  Hierarchy.flush_all t.hierarchy

let power_down t =
  match t.status with
  | Halted _ -> t.status <- Powered_off
  | Powered_off -> ()
  | Running -> invalid_arg "Core.power_down: pause the core first"

let power_up t ~reset_pc =
  Array.fill t.regs 0 (Array.length t.regs) 0L;
  t.pc <- reset_pc;
  t.epc <- 0;
  t.in_handler <- false;
  t.skip_watch_at <- None;
  Queue.clear t.pending_irqs;
  t.status <- Running

type context = {
  ctx_regs : int64 array;
  ctx_pc : int;
  ctx_epc : int;
  ctx_in_handler : bool;
}

let save_context t =
  require_halted t "save_context";
  {
    ctx_regs = Array.copy t.regs;
    ctx_pc = t.pc;
    ctx_epc = t.epc;
    ctx_in_handler = t.in_handler;
  }

let load_context t ctx =
  require_halted t "load_context";
  if Array.length ctx.ctx_regs <> Array.length t.regs then
    invalid_arg "Core.load_context: register file size mismatch";
  Array.blit ctx.ctx_regs 0 t.regs 0 (Array.length t.regs);
  t.pc <- ctx.ctx_pc;
  t.epc <- ctx.ctx_epc;
  t.in_handler <- ctx.ctx_in_handler;
  Queue.clear t.pending_irqs

let halt_reason t = match t.status with Halted r -> Some r | _ -> None

let pp_status ppf = function
  | Running -> Format.fprintf ppf "running"
  | Powered_off -> Format.fprintf ppf "powered-off"
  | Halted Halt_instruction -> Format.fprintf ppf "halted (halt)"
  | Halted Forced_pause -> Format.fprintf ppf "halted (forced pause)"
  | Halted Double_fault -> Format.fprintf ppf "halted (double fault)"
  | Halted (Watchpoint a) -> Format.fprintf ppf "halted (watchpoint @%d)" a
  | Halted (Unhandled_exception c) ->
    let name =
      match c with
      | Isa.Div_by_zero -> "div-by-zero"
      | Isa.Page_fault a -> Printf.sprintf "page-fault @%d" a
      | Isa.Bad_instruction -> "bad-instruction"
      | Isa.Watchpoint_hit a -> Printf.sprintf "watchpoint @%d" a
    in
    Format.fprintf ppf "halted (unhandled %s)" name
