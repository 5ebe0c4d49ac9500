(* Span recorder for the traced run.

   Every call the benchmark makes into a simulator layer goes through
   [with_], which records name, layer, start, end, parent span and op id
   when recording is on and is a bare call otherwise.  Spans stay in
   memory and are written once, at exit, as Chrome-trace JSON and as
   folded [workload;layer;function N] lines (N = self time in µs).

   Spans are recorded on the calling domain only: the fleet workload's
   worker domains run inside [Fleet.run], which is one span. *)

type t = {
  id : int;
  parent : int;  (** -1 at top level *)
  name : string;
  layer : string;
  op : int;  (** -1 outside the timed loop (set-up, probes) *)
  t0 : float;
  t1 : float;
  lost : float;  (** time inside the span spent on host-speed sampling *)
}

let recording = ref false
let clock = ref Sys.time
let now () = !clock ()
let current_op = ref (-1)

(* Measured time spent on host-speed sampling (see Harness), which is
   taken out of every interval it falls in. *)
let lost = ref 0.0
let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let start () =
  spans := [];
  next_id := 0;
  stack := [];
  recording := true

let stop () = recording := false

let with_ ~layer name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let op = !current_op in
    let l0 = !lost in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; name; layer; op; t0; t1; lost = !lost -. l0 } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let recorded () = List.rev !spans

let duration s = s.t1 -. s.t0 -. s.lost

(* Self time: a span's duration minus the time its direct children
   cover (children of one span never overlap: one domain, nested
   calls). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Summed duration, summed self time and count of the spans called
   [name], over [self_times] output. *)
let total timed name =
  List.fold_left
    (fun (d, self, n) (s, st) ->
      if s.name = name then (d +. duration s, self +. st, n + 1)
      else (d, self, n))
    (0.0, 0.0, 0) timed

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let chrome_trace spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        (json_string s.name) (json_string s.layer) (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.op)
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans);
  Buffer.add_string b "]}\n";
  Buffer.contents b

let folded ~workload timed =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let key = Printf.sprintf "%s;%s;%s" workload s.layer s.name in
      Hashtbl.replace acc key
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc key)))
    timed;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k (int_of_float (v *. 1e6)))
  |> String.concat ""

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc
