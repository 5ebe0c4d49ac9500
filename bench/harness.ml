(* The one bench driver behind `guillotine bench SUITE`.

   Every suite (perf, fleet, adversary, profile) reduces its workloads
   to typed [row]s and its own invariants to failure strings; this
   module times, prints, serialises and checks them the same way for
   all four.  A committed BENCH_*.json is this module's JSON output,
   one row object per line, and `--check FILE` compares a fresh run
   against it with [check].

   Each row says how it may move:
   - [Sim] rows are deterministic simulated quantities (latency in
     sim-seconds, damage, capacity): any change at all fails;
   - [Host] rows are host measurements: a [Higher] row fails when it
     drops more than [tolerance] below the committed value, a [Lower]
     row when it rises more than [tolerance] above it, and an [Exact]
     row (a host count that is deterministic for a fixed binary, such
     as minor words per instruction) on any change.
   The committed row's kind and direction decide the gate, so a run
   cannot loosen its own check. *)

module Table = Guillotine_util.Table

type direction = Higher | Lower | Exact
type kind = Sim | Host

type row = {
  suite : string;
  workload : string;
  layer : string;  (* the layer the row isolates: jit, memory, fleet... *)
  metric : string;
  unit : string;
  direction : direction;
  kind : kind;
  value : float;
  detail : string;  (* informational; never checked *)
}

let row ~suite ~workload ~layer ~metric ~unit ~direction ~kind ?(detail = "")
    value =
  { suite; workload; layer; metric; unit; direction; kind; value; detail }

(* Allowed fractional move of a Host row against the committed value.
   Host speed swings tens of percent between runs on a loaded box. *)
let tolerance = 0.30

type suite = {
  name : string;
  title : string;
  workloads : string list;
  run : quick:bool -> repeat:int -> string list -> row list * string list;
      (* the selected workloads' rows, and the suite's own invariant
         failures (e.g. an undetected adversary) *)
}

(* ----------------------------- timing ------------------------------ *)

(* CPU seconds; wall clocks jitter under CI load and the timed suites
   are single-threaded anyway.  Sys.time's granularity is coarse
   (1-10ms), so each sample accumulates calls of [f] until the window
   exceeds [min_window_s]; otherwise a --quick run finishes inside one
   clock tick and its rate quantizes to noise.  Best-of-n on the
   resulting rates: host-perf numbers are minimum-noise, not averages.
   Returns (rate, work, seconds) of the best sample. *)
let min_window_s = 0.05

let best_of ~repeat f =
  let best = ref None in
  for _ = 1 to max 1 repeat do
    let t0 = Sys.time () in
    let work = ref 0 in
    while Sys.time () -. t0 < min_window_s do
      work := !work + f ()
    done;
    let dt = max (Sys.time () -. t0) 1e-6 in
    let rate = float_of_int !work /. dt in
    match !best with
    | Some (r, _, _) when r >= rate -> ()
    | _ -> best := Some (rate, !work, dt)
  done;
  match !best with Some b -> b | None -> assert false

(* ------------------------------- JSON ------------------------------ *)

let string_of_direction = function
  | Higher -> "higher"
  | Lower -> "lower"
  | Exact -> "exact"

let string_of_kind = function Sim -> "sim" | Host -> "host"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* 12 significant digits: enough that every committed value reads back
   exactly, and that [same] sees any real change in a Sim value. *)
let to_json r =
  Printf.sprintf
    {|{"suite":%s,"workload":%s,"layer":%s,"metric":%s,"unit":%s,"direction":"%s","kind":"%s","value":%.12g,"detail":%s}|}
    (json_string r.suite) (json_string r.workload) (json_string r.layer)
    (json_string r.metric) (json_string r.unit)
    (string_of_direction r.direction) (string_of_kind r.kind) r.value
    (json_string r.detail)

let to_json_lines rows = String.concat "" (List.map (fun r -> to_json r ^ "\n") rows)

exception Malformed of string

(* A reader for exactly what [to_json] writes: one flat object of
   string and number fields.  Anything else is [Malformed]. *)
let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let fail what = raise (Malformed (Printf.sprintf "%s at column %d" what !pos)) in
  let peek () = if !pos < n then line.[!pos] else fail "unexpected end" in
  let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\r') do incr pos done in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        Buffer.add_char b (peek ());
        incr pos;
        go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let value () =
    skip_ws ();
    if peek () = '"' then `String (string_lit ())
    else begin
      let start = !pos in
      while !pos < n && not (String.contains ",} " line.[!pos]) do incr pos done;
      match float_of_string_opt (String.sub line start (!pos - start)) with
      | Some v -> `Number v
      | None -> fail "expected a number"
    end
  in
  expect '{';
  let rec fields acc =
    let key = string_lit () in
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | ',' -> incr pos; fields ((key, v) :: acc)
    | '}' -> incr pos; (key, v) :: acc
    | _ -> fail "expected ',' or '}'"
  in
  let fs = fields [] in
  skip_ws ();
  if !pos <> n then fail "trailing text";
  fs

let row_of_fields fs =
  let field key =
    match List.assoc_opt key fs with
    | Some v -> v
    | None -> raise (Malformed ("missing field " ^ key))
  in
  let str key =
    match field key with
    | `String s -> s
    | `Number _ -> raise (Malformed (key ^ " is not a string"))
  in
  {
    suite = str "suite";
    workload = str "workload";
    layer = str "layer";
    metric = str "metric";
    unit = str "unit";
    direction =
      (match str "direction" with
       | "higher" -> Higher
       | "lower" -> Lower
       | "exact" -> Exact
       | d -> raise (Malformed ("unknown direction " ^ d)));
    kind =
      (match str "kind" with
       | "sim" -> Sim
       | "host" -> Host
       | k -> raise (Malformed ("unknown kind " ^ k)));
    value =
      (match field "value" with
       | `Number v -> v
       | `String _ -> raise (Malformed "value is not a number"));
    detail = str "detail";
  }

(* Every non-blank line must be a row, and there must be at least one. *)
let of_json_lines text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> if acc = [] then Error "no rows" else Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> go (i + 1) acc rest
    | l :: rest -> (
      match row_of_fields (parse_object l) with
      | r -> go (i + 1) (r :: acc) rest
      | exception Malformed why -> Error (Printf.sprintf "line %d: %s" i why))
  in
  go 1 [] lines

(* --------------------------- regression check ---------------------- *)

(* Equal up to the 12 digits [to_json] keeps: a Sim value computed as a
   difference of sim times may differ from its committed decimal in
   the last binary place. *)
let same a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Failures of [rows] against the committed [baseline] text (the
   contents of a BENCH_*.json); [] means the run passes. *)
let check ~baseline rows =
  match of_json_lines baseline with
  | Error why -> [ "unparseable baseline: " ^ why ]
  | Ok committed ->
    List.filter_map
      (fun c ->
        let name = c.workload ^ "/" ^ c.metric in
        match
          List.find_opt
            (fun r -> r.suite = c.suite && r.workload = c.workload && r.metric = c.metric)
            rows
        with
        | None -> Some (name ^ ": row missing from this run")
        | Some r ->
          let failed why =
            Some
              (Printf.sprintf "%s: %.6g %s vs committed %.6g (%s)" name r.value
                 r.unit c.value why)
          in
          let pct = Printf.sprintf "%.0f%%" (tolerance *. 100.0) in
          if c.kind = Sim || c.direction = Exact then
            if same r.value c.value then None else failed "must be equal"
          else if c.direction = Higher && r.value < c.value *. (1.0 -. tolerance) then
            failed ("dropped more than " ^ pct)
          else if c.direction = Lower && r.value > c.value *. (1.0 +. tolerance) then
            failed ("rose more than " ^ pct)
          else None)
      committed

(* ------------------------------ driver ----------------------------- *)

let gate_label r =
  match (r.kind, r.direction) with
  | Sim, _ | Host, Exact -> "exact"
  | Host, Higher -> "higher"
  | Host, Lower -> "lower"

let print_table ~title rows =
  let t =
    Table.create ~title
      ~columns:
        [
          ("workload", Table.Left);
          ("layer", Table.Left);
          ("metric", Table.Left);
          ("value", Table.Right);
          ("unit", Table.Left);
          ("gate", Table.Left);
          ("detail", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.workload; r.layer; r.metric; Printf.sprintf "%.6g" r.value; r.unit;
          gate_label r; r.detail ])
    rows;
  Table.print t

(* Runs [suite] and returns an exit code: 0 when every invariant holds
   and the --check (if any) passes, 1 otherwise, 2 on an unknown
   workload name. *)
let main suite ?(workloads = suite.workloads) ?(repeat = 3) ?(quick = false)
    ?(json = false) ?out ?check:baseline_path () =
  match List.filter (fun w -> not (List.mem w suite.workloads)) workloads with
  | w :: _ ->
    Printf.eprintf "unknown %s workload %S (try --list)\n" suite.name w;
    2
  | [] ->
    let rows, failures = suite.run ~quick ~repeat workloads in
    let text = to_json_lines rows in
    if json then print_string text else print_table ~title:suite.title rows;
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        if not json then Printf.printf "wrote %s\n" path)
      out;
    let regressions =
      match baseline_path with
      | None -> []
      | Some path -> check ~baseline:(In_channel.with_open_bin path In_channel.input_all) rows
    in
    List.iter (Printf.eprintf "%s gate: %s\n" suite.name) failures;
    List.iter (Printf.eprintf "%s regression: %s\n" suite.name) regressions;
    (match baseline_path with
     | Some path when regressions = [] ->
       Printf.eprintf "check against %s: ok\n" path
     | _ -> ());
    if failures = [] && regressions = [] then 0 else 1
