(* The client side of the wire workloads: the shipped `xqbang serve`
   binary as a child process, line-oriented connections, and the
   counters the server exports (STATS, TRACE). *)

open Util

(* ---------- the server process ---------- *)

type server = { pid : int; port : int }

let listening_re = Str.regexp "listening on 127\\.0\\.0\\.1:\\([0-9]+\\)"

(* The server's log so far ("" before it exists). *)
let read_log path = if Sys.file_exists path then Inputs.read_file path else ""

(* Start [exe serve --port 0 args] with stderr in [log] and wait for
   its "listening on" line (the port is chosen by the kernel). *)
let start ~exe ~args ~log =
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let argv = Array.of_list ((exe :: "serve" :: "--port" :: "0" :: args)) in
  let pid = Unix.create_process exe argv devnull devnull err in
  Unix.close err;
  Unix.close devnull;
  let t_end = now_ns () + 20_000_000_000 in
  let rec wait () =
    let s = read_log log in
    match Str.search_forward listening_re s 0 with
    | _ -> { pid; port = int_of_string (Str.matched_group 1 s) }
    | exception Not_found ->
      (match Unix.waitpid [ WNOHANG ] pid with
      | p, _ when p = pid -> failwith ("server exited during start: " ^ s)
      | _ -> ());
      if now_ns () > t_end then failwith "server did not start within 20 s";
      Unix.sleepf 0.002;
      wait ()
  in
  wait ()

(* SIGTERM, then SIGKILL after 5 s; always reaps the child. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t_end = now_ns () + 5_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ WNOHANG ] srv.pid with
    | p, _ when p = srv.pid -> ()
    | _ ->
      if now_ns () > t_end then begin
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let hwm_mb srv = vm_hwm_mb (string_of_int srv.pid)

(* ---------- connections ---------- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of valid data *)
  out : Buffer.t;  (* requests queued for the next flush *)
}

let connect srv =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, srv.port));
  Unix.setsockopt fd TCP_NODELAY true;
  { fd; buf = Bytes.create 65536; pos = 0; len = 0; out = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let queue c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go 0

(* One complete reply line already in the buffer, if any. *)
let take_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some j when j < c.len ->
    let l = Bytes.sub_string c.buf c.pos (j - c.pos) in
    c.pos <- j + 1;
    Some l
  | _ -> None

(* One read(2) into the buffer; false on EOF. *)
let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  c.len <- c.len + n;
  n > 0

let rec read_line c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then read_line c else failwith "server closed the connection"

let request c line =
  queue c line;
  flush c;
  read_line c

let expect_ok c line =
  let r = request c line in
  if String.length r >= 2 && String.sub r 0 2 = "OK" then
    if String.length r > 3 then String.sub r 3 (String.length r - 3) else ""
  else failwith (Printf.sprintf "%s -> %s" (String.sub line 0 (min 60 (String.length line))) r)

(* ---------- exported counters ---------- *)

let json_of_ok c line = Xqb_obs.Json.parse_exn (expect_ok c line)

let num j path =
  match Xqb_obs.Json.path j path with
  | Some v -> Option.value ~default:nan (Xqb_obs.Json.to_float_opt v)
  | None -> nan

let stats c = json_of_ok c "STATS"

(* Server-side spans of the most recent traced job: (span id, parent
   id, name, start, duration) in ns, start relative to the job's trace,
   from the TRACE reply's Chrome trace events. *)
let last_trace c =
  let j = json_of_ok c "TRACE" in
  List.filter_map
    (fun ev ->
      let str k = Option.bind (Xqb_obs.Json.member k ev) Xqb_obs.Json.to_string_opt in
      let arg k =
        Option.bind (Xqb_obs.Json.path ev [ "args"; k ]) Xqb_obs.Json.to_string_opt
      in
      match (str "name", arg "span", arg "parent", Xqb_obs.Json.member "ts" ev, Xqb_obs.Json.member "dur" ev) with
      | Some name, Some id, Some parent, Some (Num ts), Some (Num dur) ->
        Some (int_of_string id, int_of_string parent, name, int_of_float (ts *. 1e3), int_of_float (dur *. 1e3))
      | _ -> None)
    (Xqb_obs.Json.to_list
       (Option.value ~default:Xqb_obs.Json.Null (Xqb_obs.Json.member "traceEvents" j)))

(* ---------- load generation ---------- *)

type 'a pending = { tag : 'a; due_ns : int; sent_ns : int }

(* Wait until some connection with outstanding requests is readable
   (or [timeout_ns] passes) and feed every reply line to [on_line]. *)
let poll_replies conns ~outstanding ~timeout_ns ~on_line =
  let fds =
    List.filter_map
      (fun (i, c) -> if outstanding i > 0 then Some c.fd else None)
      (List.mapi (fun i c -> (i, c)) conns)
  in
  if fds <> [] then begin
    let ready, _, _ =
      try Unix.select fds [] [] (Float.max 0. (float_of_int timeout_ns /. 1e9))
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iteri
      (fun i c ->
        if List.memq c.fd ready then begin
          if not (fill c) then failwith "server closed the connection";
          let rec lines () =
            match take_line c with
            | Some l ->
              on_line i l;
              lines ()
            | None -> ()
          in
          lines ()
        end)
      conns
  end
  else if timeout_ns > 0 then Unix.sleepf (float_of_int timeout_ns /. 1e9)

(* ---------- set-up ---------- *)

type session = { conn : conn; sid : string }

(* One session on its own connection: OPEN, LOAD of the XML file as
   "auction", then each text of [declare]. Returns it with the LOAD's
   round trip (ns). *)
let open_session srv ~doc ~declare =
  let conn = connect srv in
  let sid = expect_ok conn "OPEN" in
  let tl = now_ns () in
  ignore (expect_ok conn (Printf.sprintf "LOAD %s auction %s" sid doc));
  let load_ns = now_ns () - tl in
  List.iter
    (fun q -> ignore (expect_ok conn (Printf.sprintf "QUERY %s %s" sid (Xqb_service.Protocol.escape q))))
    declare;
  ({ conn; sid }, load_ns)

(* Start a server and open [conns] sessions. Returns the server, the
   sessions, the whole set-up time and the first LOAD's round trip. *)
let boot ~exe ~args ~log ~doc ~conns ~declare =
  let t0 = now_ns () in
  let srv = start ~exe ~args ~log in
  let sessions = List.init conns (fun _ -> open_session srv ~doc ~declare) in
  (srv, List.map fst sessions, now_ns () - t0, snd (List.hd sessions))

let shutdown (srv, sessions) =
  List.iter (fun s -> close s.conn) sessions;
  stop srv

(* Boot [setups] times (stopping all but the last server) and keep the
   last: set-up time and LOAD time are the medians. *)
let boot_many ~exe ~args ~dir ~doc ~conns ~declare =
  let runs =
    List.init setups (fun k ->
        let log = Filename.concat dir (Printf.sprintf "server-%d.log" k) in
        let srv, ss, t, l = boot ~exe ~args:(args k) ~log ~doc ~conns ~declare in
        if k < setups - 1 then shutdown (srv, ss);
        (srv, ss, t, l))
  in
  let srv, ss, _, _ = List.nth runs (setups - 1) in
  ( srv,
    ss,
    median_of (List.map (fun (_, _, t, _) -> secs_of_ns t) runs),
    median_of (List.map (fun (_, _, _, l) -> ms_of_ns l) runs) )

(* The TRACE-sampling pass: [n] requests one at a time on [s], each
   followed by TRACE. Records the client span and the server's phases
   under it, and returns the residual samples (ns): client round trip
   minus the server's top-level phases. *)
let sample_residuals (spans : Spans.t) s ~n ~text ~check =
  let resid = Samples.create () in
  for req = 0 to n - 1 do
    let t = text req in
    let c = Spans.open_ spans ~req:(1_000_000 + req) "client.request" in
    let r = request s.conn (Printf.sprintf "QUERY %s %s" s.sid t) in
    Spans.close c;
    check req r;
    let phases = last_trace s.conn in
    let ts0 = List.fold_left (fun acc (_, _, _, ts, _) -> min acc ts) max_int phases in
    Spans.import spans ~parent:c.id ~req:(1_000_000 + req)
      (List.map
         (fun (id, parent, name, ts, dur) ->
           let start_ns = c.start_ns + (ts - ts0) in
           (id, parent, "server." ^ name, start_ns, start_ns + dur))
         phases);
    let roots = ref 0 in
    List.iter (fun (_, parent, _, _, dur) -> if parent < 0 then roots := !roots + dur) phases;
    Samples.add resid (float_of_int (c.end_ns - c.start_ns - !roots))
  done;
  resid
