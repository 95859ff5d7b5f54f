(* A chaos client for a live server: a raw connection that writes
   arbitrary bytes and reads protocol lines back, and [run_action], which
   inflicts one seeded [Net_fault] action on a fresh connection. *)

module Net_fault = Raw_storage.Net_fault

module Raw_conn = struct
  type t = { fd : Unix.file_descr; mutable pending : string }

  (* A refused or absent socket is retried for up to 10 s, the retry the
     server chaos tests have always used, so a caller can race a server
     that is still starting; after that the last error is raised. *)
  let connect socket_path =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () -> { fd; pending = "" }
      | exception (Unix.Unix_error _ as e) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () > deadline then raise e;
        Thread.delay 0.01;
        go ()
    in
    go ()

  let send t s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring t.fd s !off (len - !off)
    done

  let read_line ?(timeout = 10.) t =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      match String.index_opt t.pending '\n' with
      | Some i ->
        let line = String.sub t.pending 0 i in
        t.pending <-
          String.sub t.pending (i + 1) (String.length t.pending - i - 1);
        `Line line
      | None -> (
        let now = Unix.gettimeofday () in
        if now >= deadline then `Timeout
        else
          match
            Unix.select [ t.fd ] [] [] (Float.min 0.25 (deadline -. now))
          with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ -> (
            let b = Bytes.create 65536 in
            match Unix.read t.fd b 0 65536 with
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              ->
              `Eof
            | 0 -> `Eof
            | n ->
              t.pending <- t.pending ^ Bytes.sub_string b 0 n;
              go ()))
    in
    go ()

  let close t =
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* [request] is one newline-terminated well-formed request line; the
   action decides how much of it is sent, when, and whether the
   response is read. *)
let run_action ~request socket_path action =
  let half = String.length request / 2 in
  (* chaos clients assert nothing about their own fate — being torn,
     reaped or refused is their job; the try swallows the fallout *)
  try
    let rc = Raw_conn.connect socket_path in
    Fun.protect
      ~finally:(fun () -> Raw_conn.close rc)
      (fun () ->
        let send_and_read s =
          Raw_conn.send rc s;
          ignore (Raw_conn.read_line ~timeout:10. rc)
        in
        match action with
        | Net_fault.Well_formed -> send_and_read request
        | Net_fault.Torn_write s ->
          Raw_conn.send rc (String.sub request 0 half);
          Thread.delay s;
          send_and_read (String.sub request half (String.length request - half))
        | Net_fault.Stall s ->
          Thread.delay s;
          send_and_read request
        | Net_fault.Disconnect_mid_request ->
          Raw_conn.send rc (String.sub request 0 half)
        | Net_fault.Disconnect_before_read -> Raw_conn.send rc request
        | Net_fault.Garbage g -> send_and_read (g ^ "\n")
        | Net_fault.Oversized n -> send_and_read (String.make n 'x' ^ "\n")
        | Net_fault.Wrong_shape w -> send_and_read (w ^ "\n"))
  with Unix.Unix_error _ | Sys_error _ -> ()
