(* Shared plumbing: clock, sample statistics, metric records, the
   benchmark-side span recorder and the result line. *)

let now_ns = Xqb_obs.Clock.now_ns
let secs_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

(* ---------- samples ---------- *)

(* A growable float buffer: latencies are appended on the hot path,
   sorted once at the end. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Nearest-rank percentile on a sorted array; nan when empty. *)
  let pct_sorted s p =
    let n = Array.length s in
    if n = 0 then nan
    else
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      s.(max 0 (min (n - 1) (k - 1)))

  let pct t p = pct_sorted (sorted t) p
  let median t = pct t 50.
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.median s

(* ---------- metrics ---------- *)

(* Set-ups per run where set-up is cheap: [setup_s] is their median. *)
let setups = 9

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* [per_op_ns f] times [f] in batches of [batch] calls until [budget_ns]
   has passed (at least 5 batches) and returns the median per-call ns
   over the batches. *)
let per_op_ns ?(batch = 64) ?(budget_ns = 150_000_000) f =
  let s = Samples.create () in
  let t_end = now_ns () + budget_ns in
  while Samples.count s < 5 || now_ns () < t_end do
    let t0 = now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    Samples.add s (float_of_int (now_ns () - t0) /. float_of_int batch)
  done;
  Samples.median s

(* Process peak resident set (VmHWM) in MB, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* Hypervisor steal and total CPU ticks so far, from /proc/stat. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let l = input_line ic in
    close_in ic;
    let f = List.filter_map int_of_string_opt (String.split_on_char ' ' l) in
    let steal = match List.nth_opt f 7 with Some v -> v | None -> 0 in
    (steal, List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) f))

(* Share (%) of CPU time the hypervisor stole since [from]. *)
let steal_pct_since (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* ---------- failures ---------- *)

(* Failed operations by kind: "ERR [dynamic] ..." replies by their
   bracketed kind (plus the error code when the message carries one),
   wrong answers as "wrong". *)
module Failures = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let add (t : t) kind =
    Hashtbl.replace t kind (1 + Option.value ~default:0 (Hashtbl.find_opt t kind))

  let total (t : t) = Hashtbl.fold (fun _ n acc -> acc + n) t 0

  let merge ~(into : t) (t : t) =
    Hashtbl.iter
      (fun k n -> Hashtbl.replace into k (n + Option.value ~default:0 (Hashtbl.find_opt into k)))
      t

  let code_re = Str.regexp "\\(XUDY[0-9]+\\|XPTY[0-9]+\\|XPDY[0-9]+\\|XQDY[0-9]+\\|FO[A-Z]+[0-9]+\\|insertion anchor is not a child\\)"

  (* Classify a reply that is not the expected answer: an ERR line by
     its bracketed kind (and error code), anything else as "wrong". *)
  let kind_of_reply line =
    if String.length line >= 3 && String.sub line 0 3 = "ERR" then
      let kind =
        match (String.index_opt line '[', String.index_opt line ']') with
        | Some i, Some j when i < j -> String.sub line (i + 1) (j - i - 1)
        | _ -> "err"
      in
      match Str.search_forward code_re line 0 with
      | _ -> kind ^ ":" ^ Str.matched_string line
      | exception Not_found -> kind
    else "wrong"

  (* Wrong answers (as opposed to ERR replies): any makes a run incorrect. *)
  let wrong (t : t) =
    Hashtbl.fold
      (fun k n acc -> if String.length k >= 5 && String.sub k 0 5 = "wrong" then acc + n else acc)
      t 0

  let to_json (t : t) =
    let l = Hashtbl.fold (fun k n acc -> (k, n) :: acc) t [] in
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, n) -> Printf.sprintf "\"%s\":%d" (Xqb_obs.Json.escape k) n)
           (List.sort compare l))
    ^ "}"
end

(* ---------- benchmark-side spans ---------- *)

(* One span per layer boundary crossed by the benchmark's own calls:
   name, start/end on the monotonic clock, parent span id (-1 = root)
   and the request id it belongs to. Kept in memory, written at exit. *)
module Spans = struct
  type span = {
    id : int;
    name : string;
    start_ns : int;
    mutable end_ns : int;
    parent : int;
    req : int;
  }

  type t = { mutable spans : span list; mutable next : int; mutable on : bool }

  let create () = { spans = []; next = 0; on = false }

  let open_ t ?(parent = -1) ~req name =
    let id = t.next in
    t.next <- id + 1;
    let s = { id; name; start_ns = now_ns (); end_ns = -1; parent; req } in
    if t.on then t.spans <- s :: t.spans;
    s

  let close s = s.end_ns <- now_ns ()

  (* Record a span whose interval is already known (server phases
     imported from a TRACE reply, engine spans from a tracer). *)
  let add t ~parent ~req ~name ~start_ns ~end_ns =
    let id = t.next in
    t.next <- id + 1;
    if t.on then t.spans <- { id; name; start_ns; end_ns; parent; req } :: t.spans;
    id

  (* Import a tree of (id, parent id, name, start, end) spans under
     [parent], keeping its shape. *)
  let import t ~parent ~req tree =
    let ids = Hashtbl.create 16 in
    List.iter
      (fun (id, p, name, start_ns, end_ns) ->
        let parent = Option.value ~default:parent (Hashtbl.find_opt ids p) in
        Hashtbl.replace ids id (add t ~parent ~req ~name ~start_ns ~end_ns))
      tree

  let all t = List.rev t.spans

  (* Self time per span name: duration minus the part of the interval
     covered by its children (children assumed nested and disjoint). *)
  let self_times t =
    let spans = all t in
    let child_cover = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 && s.end_ns >= 0 then
          Hashtbl.replace child_cover s.parent
            (s.end_ns - s.start_ns
            + Option.value ~default:0 (Hashtbl.find_opt child_cover s.parent)))
      spans;
    let by_name = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun s ->
        if s.end_ns >= 0 then begin
          let self =
            s.end_ns - s.start_ns
            - Option.value ~default:0 (Hashtbl.find_opt child_cover s.id)
          in
          (match Hashtbl.find_opt by_name s.name with
          | None ->
            order := s.name :: !order;
            Hashtbl.replace by_name s.name (Samples.create ())
          | Some _ -> ());
          Samples.add (Hashtbl.find by_name s.name) (float_of_int self)
        end)
      spans;
    List.rev_map (fun n -> (n, Hashtbl.find by_name n)) !order

  let write t path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d}}"
          (Xqb_obs.Json.escape s.name) (us_of_ns s.start_ns)
          (us_of_ns (max 0 (s.end_ns - s.start_ns)))
          (if s.req < 0 then 0 else 1) s.id s.parent s.req)
      (all t);
    output_string oc "]}\n";
    close_out oc
end

(* ---------- reporting ---------- *)

let report_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (k, v, u, note) -> Printf.printf "  %-30s %14.4f %-8s %s\n" k v u note) rows

(* The last stdout line: the machine-readable result. Non-finite values
   (a metric the run could not measure) are written as -1 so the line
   stays valid JSON; the correctness flag is false in that case. *)
let result_line ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" x.name
             (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "-1")
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct && finite) (max 1 attempted) failed body

(* What one workload run hands back to bench.ml. [extra] are the
   workload's own figures (q8 p90, write latency, race probe, ...),
   printed for people but not part of the result line, whose metric
   set BENCHMARK.json fixes. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  extra : metric list;
}

(* The run's shared settings. *)
type run = {
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (* scratch directory of this run, inside the checkout *)
  exe : string;  (* the xqbang binary built from this checkout *)
  spans : Spans.t;
}
