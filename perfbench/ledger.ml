(* Host-time ledger of the benchmark: the clock and the machine-speed
   scaling of timed calls, spans around the calls the benchmark itself
   makes into each layer (kept in memory and written as Chrome/Perfetto
   JSON when the run ends), and the metric rows every workload reports.

   Wall time cannot be bracketed around anything *inside* Kv.serve or
   Workload.run: every fabric primitive yields to the cooperative
   scheduler, so other fibres run inside any bracket.  Spans therefore
   exist only around whole library calls (Traffic.stream drains, Kv.serve,
   Fuzz.Gen.gen, Workload.run, the checkers, Shrink.minimize,
   Corpus.save); what happens inside them is reported as counts. *)

(* host time is the process's CPU time: time spent descheduled does not
   count *)
let now = Sys.time

(** [time f] — [f ()] and the host seconds it took. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let minor_words () = Gc.minor_words ()

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Ledger.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Peak major heap of the process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The speed of a shared host drifts by tens of percent over seconds
   and minutes, and every host time drifts with it.  Three fixed loops
   that do not touch the library measure that speed right before and
   right after each timed call, and the call's time is scaled to a
   machine on which the loops take [calib_ref] seconds (geometric mean).
   A change to the library moves the timed calls and not the loops.

   The loops are integer work with different memory footprints — random
   reads and writes over 4 MiB and over 256 KiB, and a pointer chase
   through 32 KiB — because no single one tracks the simulator as well
   as the three together.  They allocate nothing, and the two large
   buffers live outside the OCaml heap, so the loops leave the garbage
   collector's state, and the timed calls after them, as they found
   them. *)
let bytes n =
  let b = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n in
  Bigarray.Array1.fill b 7;
  b

let large = bytes (1 lsl 22)
let small = bytes (1 lsl 18)
let chase = Array.make 4096 1

let random_rw buf iters =
  let mask = Bigarray.Array1.dim buf - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    let v = Bigarray.Array1.unsafe_get buf i in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v lsl 3);
    Bigarray.Array1.unsafe_set buf ((i + 4099) land mask) (!acc land 255)
  done;
  ignore (Sys.opaque_identity !acc)

let pointer_chase iters =
  let mask = Array.length chase - 1 in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to iters do
    let v = Array.unsafe_get chase !j in
    acc := !acc + v;
    Array.unsafe_set chase !j (((v * 5) + 1) land 1023);
    j := (!j + (v * 7) + 1) land mask
  done;
  ignore (Sys.opaque_identity !acc)

let calib_ref = 0.012

(* geometric mean of the three loops' host times *)
let calibration () =
  let t f = snd (time f) in
  let a = t (fun () -> random_rw large 600_000) in
  let b = t (fun () -> random_rw small 1_250_000) in
  let c = t (fun () -> pointer_chase 750_000) in
  Float.cbrt (a *. b *. c)

let last_calibration = ref nan
let factors = ref []

(** Start a run's speed measurement. *)
let start_calibration () =
  factors := [];
  last_calibration := calibration ()

(** [scaled f] — [f ()], its host seconds, and those seconds scaled to
    the reference machine by the speed measured before and after it. *)
let scaled f =
  let r, t = time f in
  let before = !last_calibration in
  let after = calibration () in
  last_calibration := after;
  let factor = calib_ref /. ((before +. after) /. 2.0) in
  factors := factor :: !factors;
  (r, t, t *. factor)

(** Median speed factor of the run so far. *)
let speed_factor () = median !factors

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  name : string;
  workload : string;
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

let finished : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let current_workload = ref ""

(** [span name f] — run [f ()] inside a span named [name], a child of
    the innermost open span. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with [] -> -1 | p :: _ -> p in
  open_ids := id :: !open_ids;
  let start = now () in
  let close () =
    open_ids := List.tl !open_ids;
    finished :=
      { id; name; workload = !current_workload; parent; start; stop = now () }
      :: !finished
  in
  Fun.protect ~finally:close f

let spans () = List.rev !finished

(** Self time per span name, in first-seen order: each span's duration
    minus the time its direct children cover (children never overlap:
    the benchmark is single-threaded). *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0)
          +. (s.stop -. s.start)))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let key = (s.workload, s.name) in
      let self =
        s.stop -. s.start
        -. (try Hashtbl.find child_time s.id with Not_found -> 0.0)
      in
      match Hashtbl.find_opt totals key with
      | Some (t, n) -> Hashtbl.replace totals key (t +. self, n + 1)
      | None ->
          Hashtbl.replace totals key (self, 1);
          order := key :: !order)
    spans;
  List.rev_map
    (fun ((w, name) as key) ->
      let t, n = Hashtbl.find totals key in
      (w, name, t, n))
    !order

(** Sum of the self time of every span called [name] in [workload]. *)
let self_time ~workload name =
  List.fold_left
    (fun acc (w, n, t, _) -> if w = workload && n = name then acc +. t else acc)
    0.0
    (self_times (spans ()))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Chrome trace-event JSON: one complete ("X") event per span, one
    thread track per workload, times in microseconds from the first
    span. *)
let write_chrome file spans =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let tids = Hashtbl.create 4 in
  let tid w =
    match Hashtbl.find_opt tids w with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.replace tids w t;
        t
  in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"workload\":%s}}"
        (if i = 0 then "" else ",")
        (json_string s.name) (tid s.workload)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent (json_string s.workload))
    spans;
  Hashtbl.iter
    (fun w t ->
      Printf.fprintf oc
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}"
        t (json_string w))
    tids;
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Metric rows                                                         *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(** What one pass over a workload reports. *)
type report = {
  metrics : metric list;
  runs : int;  (** timed passes (1 for the traced pass) *)
  errors : string list;  (** failed correctness checks *)
  notes : string list;
  counts : string;
      (** the traced pass's simulated results and counts, which the
          self-test compares run to run *)
}
let mi name unit_ value = { name; value = float_of_int value; unit_ }

(* every digit as measured: integers print exactly, other values with
   17 significant digits (enough to round-trip a double) *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string r.name) (number r.value) (json_string r.unit_))
          metrics))

let print_table ~title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun r -> Printf.printf "  %-34s %22s  %s\n" r.name (number r.value) r.unit_)
    rows
