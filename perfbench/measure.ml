(* Clocks, order statistics, process memory and the one-line JSON result
   every phase of the benchmark prints for run.py to merge. *)

let now_ns () = Pf_obs.Span.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = ms_since t0 /. 1e3

(* Sleep until the monotonic clock reaches [due] (ns). *)
let sleep_until due =
  let rec go () =
    let left = Int64.sub due (now_ns ()) in
    if Int64.compare left 0L > 0 then begin
      Unix.sleepf (Int64.to_float left /. 1e9);
      go ()
    end
  in
  go ()

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile q (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let i = int_of_float (Float.ceil (q *. float n)) - 1 in
    s.(max 0 (min (n - 1) i))
  end

let median xs = quantile 0.5 xs

(* {1 Host speed}

   The host this benchmark was written on is shared: the same code runs
   1.6 to 3 times slower in spells that last from under a second to
   minutes, longer than a run, whatever the program does. No
   estimator over one run's own slices removes a spell that covers the
   run. So every time figure of the timed phases is measured beside a
   fixed probe, the kernel below: code of this file, never of the
   program under test. A slice of measured work is reported at the
   probe's nominal speed: its raw time times [probe_nominal_ns] over the
   host's probe time (see [factor]), probed right after it. A change to the program moves the figure
   as much as it moves the raw time; a slow spell of the host moves the
   probe and the work alike and mostly cancels out. run.py pins a run to
   one CPU, so probe and work share a core. The raw figures are kept in
   the result's info.

   The slow spells are contention for the core's caches, not for its
   arithmetic units (a register-only loop keeps its speed), and they
   slow code by how much it leans on the caches. The kernel mixes three
   parts in the proportions that tracked default-engine matching of
   NITF documents best, fitted on a 300 s trace of this host with five
   slow spells (up to 2.7x) interleaving kernel parts and documents:
   hash table lookups and text scanning (three fifths of its time),
   pointer chasing through a 512 KB ring and minor-heap allocation (a
   fifth each). Over 4 s windows of that trace the engine's time moved
   3.5x between the fastest and slowest window raw, 1.22x scaled. One
   kind of spell escapes it: matching 3x slower for minutes while the
   probe ran 1.5x slow, most likely contention for the shared L3 cache,
   which the probe's small working set does not feel. *)

let ring n =
  (* one cycle through every slot (Sattolo's shuffle), fixed seed *)
  let a = Array.init n Fun.id in
  let st = Random.State.make [| 17 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let probe_ring = ring (1 lsl 16)
let probe_keys = Array.init 2048 (fun i -> Printf.sprintf "tag-%d" (i * 7919))

let probe_table =
  let h = Hashtbl.create 4096 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) probe_keys;
  h

let probe_text =
  String.concat ""
    (List.init 600 (fun i -> Printf.sprintf "<item id=\"%d\"><name>n%d</name></item>" i (i * 31)))

let chase ring steps =
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    j := ring.(!j);
    acc := !acc + !j
  done;
  !acc

(* The three parts, each sized to its share of the probe's time. *)
let probe_parts =
  [|
    (fun () ->
      let acc = ref 0 in
      Array.iter (fun k -> acc := !acc + Hashtbl.find probe_table k) probe_keys;
      String.iter (fun c -> if c = '<' then incr acc else if c = '"' then acc := !acc + 2) probe_text;
      !acc);
    (fun () -> chase probe_ring 7_000);
    (fun () ->
      let l = ref [] in
      for i = 1 to 4_700 do
        l := (i, i) :: !l
      done;
      List.length !l);
  |]

(* The probe's time on a host running at the speed figures are reported
   at: its median on the host this benchmark was written on (2-vCPU
   Xeon, shared), in a calm spell. A constant: changing it changes the
   benchmark. *)
let probe_nominal_ns = 250_000.

let probe_log : float list ref = ref []

(* One probe (ns), logged: each part runs three times in a row and its
   median run counts, so every part is timed with its own data in the
   caches, as the measured work's steady state is. Timed back to back in
   one run, each part would find the caches filled by the others, and
   that cold start slows in a slow spell far more than warm matching
   does. *)
let probe () =
  let one f =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (f ()));
    Int64.to_float (Int64.sub (now_ns ()) t0)
  in
  let part f =
    let ts = Array.init 3 (fun _ -> one f) in
    Array.sort compare ts;
    ts.(1)
  in
  let ns = Array.fold_left (fun a f -> a +. part f) 0. probe_parts in
  probe_log := ns :: !probe_log;
  ns

(* Call right before the first slice of a series. *)
let start_slices () = ignore (probe ())

(* Probes the factor rests on: the latest [smoothing] of the process. *)
let smoothing = 5

(* Call right after a slice: probes again and returns the factor that
   takes the slice's raw time to the nominal speed. The host's speed is
   taken as the median of the latest [smoothing] probes, this one and
   those before it (a few seconds' worth in every series): one probe
   sees about a millisecond of the host, and the spells it should follow
   last from a fraction of a second up, so a single probe that fell in
   a short dip or burst would mis-scale a whole slice. *)
let factor () =
  ignore (probe ());
  let latest = List.filteri (fun i _ -> i < smoothing) !probe_log in
  probe_nominal_ns /. median (Array.of_list latest)

let median_probe_ns () = median (Array.of_list !probe_log)

(* Median per-call time (ns) of [f] over [xs], each call timed alone. *)
let per_call_ns f xs =
  median
    (Array.map
       (fun x ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f x));
         Int64.to_float (Int64.sub (now_ns ()) t0))
       xs)

(* Wall time (ns) of one pass of [f] over every element of [xs]. *)
let pass_ns f xs =
  let t0 = now_ns () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  Int64.to_float (Int64.sub (now_ns ()) t0)

(* The median over three passes, divided by the pass length: per-element
   time that one stray descheduling does not move. *)
let median_pass_ns f xs =
  median (Array.init 3 (fun _ -> pass_ns f xs)) /. float (max 1 (Array.length xs))

(* A memory field of a process's /proc status in MB: [VmHWM] (peak
   resident set) or [VmRSS] (resident set now). *)
let status_mb ?(pid = "self") field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let key = field ^ ":" in
  let k = String.length key in
  let rec scan () =
    match input_line ic with
    | line when String.length line > k && String.sub line 0 k = key ->
      Scanf.sscanf (String.sub line k (String.length line - k)) " %d kB" (fun kb ->
          float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb ?pid () = status_mb ?pid "VmHWM"

(* {1 Result line} *)

type result = {
  mutable metrics : (string * float) list;  (* reverse insertion order *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* output mismatches and broken invariants *)
  mutable info : (string * string) list;
}

let result () = { metrics = []; attempted = 0; failed = 0; errors = []; info = [] }
let metric r name v = r.metrics <- (name, v) :: r.metrics
let error r msg = r.errors <- msg :: r.errors
let info r k v = r.info <- (k, v) :: r.info

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = "\"" ^ String.escaped s ^ "\""

(* One JSON object on the last stdout line; run.py merges the phases. *)
let print r =
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  print_endline
    (obj
       [
         "\"correct\": " ^ string_of_bool (r.errors = []);
         Printf.sprintf "\"attempted\": %d" r.attempted;
         Printf.sprintf "\"failed\": %d" r.failed;
         "\"errors\": [" ^ String.concat ", " (List.rev_map json_string r.errors) ^ "]";
         "\"info\": "
         ^ obj (List.rev_map (fun (k, v) -> json_string k ^ ": " ^ json_string v) r.info);
         "\"metrics\": "
         ^ obj (List.rev_map (fun (k, v) -> json_string k ^ ": " ^ json_float v) r.metrics);
       ])
