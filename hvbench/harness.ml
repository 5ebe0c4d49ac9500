(* What every workload shares: the calibrated clock, allocation
   counters, per-run accounting, order statistics and result printing. *)

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks. *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* ---- clocks ---- *)

(* Single-domain workloads time with process CPU time, which ignores
   the host descheduling this process; fleet-serve runs several domains
   at once and must use wall time. *)
let clock_name = ref "process-cpu"
let multi_domain = ref false

(* Multi-domain runs are timed on the wall clock and left unscaled: a
   kernel on the calling domain, between passes, does not track the
   wall time of two domains (scaling widened fleet-serve's run-to-run
   spread from 7% to 12%). *)
let use_wall_clock () =
  Span.clock := Unix.gettimeofday;
  clock_name := "wall";
  multi_domain := true

let now = Span.now

(* The hosts this runs on change speed by more than half for seconds at
   a time (a shared 2-core machine swings between states up to 1.6x
   apart), and an absolute timing inherits that.  So every single-domain
   host time the benchmark reports is in reference seconds: a measured
   interval scaled by [kernel_ref_s /. k], where [k] is the time of a
   fixed kernel of the benchmark's own, sampled during the interval, and
   [kernel_ref_s] is that kernel's time on the reference host (a 2-core
   x86-64 container, OCaml 5.1.1, in its fast state).  The kernel does
   what the simulator does most, allocate short-lived blocks, build
   closures and hash; run next to simulator ops, its time tracked theirs
   within 4% over half-second windows in which the raw op time swung by
   20%.  No change to the simulator can move the kernel, so a faster
   simulator still reads faster.  The report prints the measured times
   and the speed factor beside them. *)
type cell = { a : int64; b : int64 }

let kernel_steps =
  Array.init 16 (fun i x -> { a = Int64.add x.a (Int64.of_int i); b = Int64.mul x.b 3L })

let kernel () =
  (* Every block stays below the minor-heap size limit: the runtime
     accounts direct major allocations lazily, so the kernel's would
     surface in the next op's word count. *)
  let h = Hashtbl.create 128 in
  let acc = ref 0 in
  for r = 0 to 3 do
    let l = ref [] in
    for i = 0 to 4095 do
      l := (i * r) :: !l;
      Hashtbl.replace h (i land 127) !acc
    done;
    List.iter (fun x -> acc := !acc + x) !l
  done;
  let x = ref { a = 1L; b = 1L } in
  for i = 0 to 60_000 do
    x := kernel_steps.(i land 15) !x
  done;
  !acc + Int64.to_int !x.a

let kernel_ref_s = 0.000_9

(* A SIGVTALRM every [calibration_period] seconds of user CPU time runs
   the kernel once, wherever the process is, so even a one-second op is
   scaled by samples taken inside it.  The kernel's time and allocation
   are subtracted from whatever interval they fall in ([Span.lost]
   accumulates the time).  Multi-domain runs do not sample. *)
let calibration_period = 0.05

(* Reference seconds per measured second: the median of the last five
   samples, and every sample of the current phase, newest first. *)
let factor = ref 1.0
let factors : float list ref = ref []
let nsamples = ref 0
let lost_words = ref 0.0

let sample () =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let k = now () -. t0 in
  factors := (kernel_ref_s /. Float.max k 1e-6) :: !factors;
  incr nsamples;
  factor := median (List.filteri (fun i _ -> i < 5) !factors);
  Span.lost := !Span.lost +. (now () -. t0);
  lost_words := !lost_words +. (Gc.minor_words () -. w0)

let sampling = ref false

let set_sampling on =
  if not !multi_domain then begin
    let period = if on then calibration_period else 0.0 in
    if on && not !sampling then begin
      Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> sample ()));
      sample ()
    end;
    ignore
      (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = period; it_value = period });
    if not on then Sys.set_signal Sys.sigvtalrm Sys.Signal_ignore;
    sampling := on
  end

(* Span durations are net of sampling; a phase's spans convert to
   reference seconds at the phase's median speed. *)
let span_secs d = match !factors with [] -> d | l -> d *. median l

(* Measured seconds spent in [f], net of sampling. *)
let interval f =
  let l0 = !Span.lost in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0 -. (!Span.lost -. l0))

(* ---- allocation ---- *)

(* Minor words plus directly allocated major words.  [Gc.quick_stat]
   sums every domain, joined ones included, but counts a domain's minor
   heap only up to its last minor collection; on one domain the minor
   part comes from the exact [Gc.minor_words]. *)
let words () =
  let s = Gc.quick_stat () in
  let direct_major = s.Gc.major_words -. s.Gc.promoted_words in
  if !multi_domain then s.Gc.minor_words +. direct_major
  else Gc.minor_words () +. direct_major

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* What one call cost: measured seconds and reference seconds (scaled
   by the median of the speed before it and every sample inside it),
   net of sampling; words allocated, net of sampling; collections run. *)
type cost = { raw : float; secs : float; words : float; minor : int; major : int }

let timed f =
  let before = !factor and n0 = !nsamples and lw0 = !lost_words in
  let mi0, ma0 = collections () in
  let w0 = words () in
  let v, raw = interval f in
  let words = words () -. w0 -. (!lost_words -. lw0) in
  let mi1, ma1 = collections () in
  let inside = List.filteri (fun i _ -> i < !nsamples - n0) !factors in
  let speed = median (before :: inside) in
  (v, { raw; secs = raw *. speed; words; minor = mi1 - mi0; major = ma1 - ma0 })

(* ---- per-run accounting ---- *)

type sample = {
  label : string;
  secs : float;  (** reference seconds *)
  raw : float;  (** measured seconds *)
  words : float;
}

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  mutable setup : (float * float) list;  (** (reference, raw) s per set-up *)
  mutable ops : sample list;  (** the workload's primary op, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable work : float;  (** work units done inside [work_secs] *)
  mutable work_secs : float;  (** reference seconds *)
  mutable work_raw : float;  (** the same interval, measured seconds *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable gc_ops : int;  (** ops the two GC counters cover *)
  mutable exact : (string * string) list;  (** newest first *)
  layer : (string, float) Hashtbl.t;
  mutable notes : string list;  (** report lines, newest first *)
}

let create_ctx ~workload ~seed ~seconds =
  {
    workload;
    seed;
    seconds;
    setup = [];
    ops = [];
    attempted = 0;
    failed = 0;
    work = 0.0;
    work_secs = 0.0;
    work_raw = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
    gc_ops = 0;
    exact = [];
    layer = Hashtbl.create 64;
    notes = [];
  }

(* Forget the accounting of a finished phase, keeping exact values and
   notes: the traced run measures a second phase. *)
let reset_phase ctx =
  ctx.setup <- [];
  ctx.ops <- [];
  ctx.attempted <- 0;
  ctx.failed <- 0;
  ctx.work <- 0.0;
  ctx.work_secs <- 0.0;
  ctx.work_raw <- 0.0;
  ctx.minor_gcs <- 0;
  ctx.major_gcs <- 0;
  ctx.gc_ops <- 0;
  factors := [ !factor ]

let note ctx fmt = Printf.ksprintf (fun s -> ctx.notes <- s :: ctx.notes) fmt
let exact ctx key value = ctx.exact <- (key, value) :: ctx.exact
let exact_int ctx key v = exact ctx key (string_of_int v)
let set_layer ctx name v = Hashtbl.replace ctx.layer name v

(* Every output check goes through [check], inside the op it belongs
   to: a false one fails that op and is reported by name. *)
let check ctx ok what =
  if (not ok) && List.length ctx.notes < 200 then note ctx "CHECK FAILED: %s" what;
  ok

(* Work done inside an interval of [raw] measured seconds, scaled at the
   current speed. *)
let add_work ctx ~work ~raw =
  ctx.work <- ctx.work +. work;
  ctx.work_secs <- ctx.work_secs +. (raw *. !factor);
  ctx.work_raw <- ctx.work_raw +. raw

(* Time one op.  [f] returns whether its output checks passed. *)
let op ctx ~label f =
  let ok, c = timed f in
  ctx.ops <- { label; secs = c.secs; raw = c.raw; words = c.words } :: ctx.ops;
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failed <- ctx.failed + 1;
  ctx.minor_gcs <- ctx.minor_gcs + c.minor;
  ctx.major_gcs <- ctx.major_gcs + c.major;
  ctx.gc_ops <- ctx.gc_ops + 1;
  ok

(* Time a set-up; [f] returns the workload state. *)
let setup ctx f =
  let v, c = timed f in
  ctx.setup <- (c.secs, c.raw) :: ctx.setup;
  v

(* A traced-run probe: one call into a layer, as a span, with its cost. *)
let probe ~layer name f = timed (fun () -> Span.with_ ~layer name f)

(* The highest of p95/p90/p75 with at least ten samples above it. *)
let tail_percentile n =
  List.find_opt (fun p -> float_of_int n *. (1.0 -. p) >= 10.0) [ 0.95; 0.90; 0.75 ]

(* Peak resident set of this process, MiB (VmHWM of /proc/self/status). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ---- end-to-end metrics ---- *)

let e2e_names =
  [
    ("work_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("words_per_op", "words");
    ("peak_rss_mb", "MiB");
    ("setup_s", "s");
  ]

let e2e ctx =
  [
    ("work_per_s", ctx.work /. ctx.work_secs);
    ("op_ms_p50", 1000.0 *. median (List.map (fun s -> s.secs) ctx.ops));
    ("words_per_op", mean (List.map (fun s -> s.words) ctx.ops));
    ("peak_rss_mb", peak_rss_mb ());
    ("setup_s", median (List.map fst ctx.setup));
  ]

(* The same timings in measured seconds, for the report. *)
let e2e_raw ctx =
  [
    ("work_per_s", ctx.work /. ctx.work_raw);
    ("op_ms_p50", 1000.0 *. median (List.map (fun s -> s.raw) ctx.ops));
    ("setup_s", median (List.map snd ctx.setup));
  ]

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
        (json_number v) (Span.json_string unit))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
