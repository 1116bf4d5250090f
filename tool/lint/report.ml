(* Machine-readable rendering of lint findings.

   Three formats: the conventional compiler-style text diagnostics, a
   JSON findings document, and SARIF 2.1.0 (the minimal subset GitHub
   code scanning ingests, so CI can annotate PRs with findings). Both
   JSON forms are built as [Rt_prelude.Json.t] and printed by it. *)

type format = Text | Json | Sarif

let format_of_string = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "sarif" -> Some Sarif
  | _ -> None

module J = Rt_prelude.Json

(* ------------------------------------------------------------------ *)
(* Renderers                                                            *)
(* ------------------------------------------------------------------ *)

let render_text findings =
  String.concat ""
    (List.map (fun f -> Finding.to_string f ^ "\n") findings)

let json_of_finding (f : Finding.t) =
  J.(
    Obj
      [
        ("file", Str f.file);
        ("line", Int f.line);
        ("col", Int f.col);
        ("rule", Str f.rule);
        ("severity", Str (Finding.severity_to_string f.severity));
        ("message", Str f.msg);
      ])

let render_json findings =
  J.(
    to_string
      (Obj
         [
           ("findings", List (List.map json_of_finding findings));
           ("count", Int (List.length findings));
         ]))

let sarif_result (f : Finding.t) =
  J.(
    Obj
      [
        ("ruleId", Str f.rule);
        ("level", Str (Finding.severity_to_string f.severity));
        ("message", Obj [ ("text", Str f.msg) ]);
        ( "locations",
          List
            [
              Obj
                [
                  ( "physicalLocation",
                    Obj
                      [
                        ( "artifactLocation",
                          Obj
                            [
                              ("uri", Str f.file);
                              ("uriBaseId", Str "SRCROOT");
                            ] );
                        ( "region",
                          Obj
                            [
                              ("startLine", Int f.line);
                              (* SARIF columns are 1-based *)
                              ("startColumn", Int (f.col + 1));
                            ] );
                      ] );
                ];
            ] );
      ])

let render_sarif findings =
  let rules =
    List.sort_uniq compare
      (List.map (fun (f : Finding.t) -> f.Finding.rule) findings)
  in
  J.(
    to_string
      (Obj
         [
           ( "$schema",
             Str
               "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
           );
           ("version", Str "2.1.0");
           ( "runs",
             List
               [
                 Obj
                   [
                     ( "tool",
                       Obj
                         [
                           ( "driver",
                             Obj
                               [
                                 ("name", Str "rt-lint");
                                 ("informationUri", Str "docs/LINT.md");
                                 ( "rules",
                                   List
                                     (List.map
                                        (fun r -> Obj [ ("id", Str r) ])
                                        rules) );
                               ] );
                         ] );
                     ("results", List (List.map sarif_result findings));
                   ];
               ] );
         ]))

let render fmt findings =
  match fmt with
  | Text -> render_text findings
  | Json -> render_json findings
  | Sarif -> render_sarif findings
