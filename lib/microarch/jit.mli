(** Block-translation policy for the threaded-code JIT.

    The hypervisor translates a guest's basic blocks (discovered by the
    vet layer's CFG recovery at [install_program] time) into arrays of
    compiled ops — one per instruction, the same op the interpreter
    runs from its predecode cache — executed back to back with a
    single dispatch per {e block}.  This module owns the
    vet-neutral data the core consumes (the microarch library must not
    depend on the vet library): the block plan, the process-wide enable
    flag, the translation-cache stat shape, and the profile ranking
    that orders translation work.

    Everything here is host-side policy.  Simulated state — registers,
    memory, cycle counts, cache/TLB/predictor movement, profile
    residencies — is bit-identical whether a block runs translated or
    interpreted; [Core] enforces that by construction and
    [test_perf_equiv] enforces it by diffing end states. *)

type plan = {
  code_words : int;
  (** Words of guest code covered by the plan (CFG scan width). *)
  leaders : int array;
  (** Leader PC of each basic block, indexed by block id. *)
  pcs : int array array;
  (** Per block: the decodable instruction PCs in fallthrough order
      starting at the leader.  A block whose tail failed to decode
      simply ends early — execution falls through to the interpreter at
      the first untranslated PC. *)
}

type stats = {
  translations : int;
      (** Blocks compiled to op arrays (including recompiles after
          invalidation). *)
  invalidations : int;
      (** Translations discarded because a fetched word no longer
          matched the word the block was compiled from (self-modifying
          or externally patched code). *)
  block_exits : int;
      (** Returns from translated execution to the dispatch loop. *)
}

val enabled_flag : bool ref
(** Read directly by the core's dispatch loop (deref per dispatch).
    Defaults to on unless [GUILLOTINE_NO_JIT] is set to something other
    than [""]/["0"] in the environment — same escape-hatch shape as
    [GUILLOTINE_NO_PREDECODE]. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val rank : plan -> hot:int array -> int array
(** Block ids ordered hottest-first by [hot.(b)] (attributed profile
    cycles), ties broken by block id so the order is deterministic.
    With no profile data (all zeros) this is the identity order.
    Ranking only decides {e what the host translates first} — it never
    changes simulated behaviour. *)
