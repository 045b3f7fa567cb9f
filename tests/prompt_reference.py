"""Reference forms of the prediction prompt's builder and mock reply, and of the scoring
prompt's reader, for equality tests.

``reference_build_prompt`` is the builder as it was before prompts were built
from per-student tables: it scans the train rows of the target and of every
peer for each prompt.  It differs from that builder in one place: a window of
0 shows no history rows (the slice ``rows[-0:]`` showed them all).
``reference_mock_reply`` answers a prompt from the full ``parse_prompt``,
where the mock backend reads only the lines it uses.

``reference_parse_scoring_prompt`` is the scoring mock's reader as it was
before it read path lines by their node kind: every line numbered
``"  <digits>. "`` is a path line, split at each ``" | "``.  It skips lines it
does not recognise, and cannot read an id that holds ``" | "``.
"""

from typing import Sequence

from hisekt.dataset import Dataset
from hisekt.irt import IrtModel, Level
from hisekt.mrhin import Node
from hisekt.predict import DEFAULT_WINDOW, HistoryRow, PeerInfo, PromptBundle, mock_reply, parse_prompt


def _kc_accuracy(rows: Sequence, kc: str) -> float | None:
    hits = [i for i in rows if kc in i.kc_ids]
    if not hits:
        return None
    return sum(1 for i in hits if i.correct) / len(hits)


def reference_build_prompt(
    u: str,
    q: str,
    peers: Sequence[str],
    m: IrtModel,
    d: Dataset,
    mask: frozenset[str] | set[str] = frozenset(),
    window: int = DEFAULT_WINDOW,
) -> PromptBundle:
    """The prompt bundle of one target, from a scan of the train rows (``window`` >= 0)."""
    mask = frozenset(mask)
    by_student = d.by_student("train")
    question_kcs = d.question_kcs()
    target_kc = min(question_kcs[q])

    own_rows = by_student.get(u, ())
    history_rows = []
    for i in own_rows[-window:] if window else ():
        qid = i.question_id
        known = m.has_question(qid)
        history_rows.append(
            HistoryRow(
                question_id=qid,
                kcs=tuple(sorted(i.kc_ids)),
                correct=i.correct,
                timestamp=i.timestamp,
                difficulty=m.diff[qid] if known else 0.0,
                discrimination=m.disc[qid] if known else 1.0,
                difficulty_level=(m.difficulty_level[qid] if known else Level.MEDIUM).label,
            )
        )

    peer_infos = []
    for peer_id in peers:
        rows = by_student.get(peer_id, ())
        kc_rows = [i for i in rows if target_kc in i.kc_ids]
        peer_infos.append(
            PeerInfo(
                student_id=peer_id,
                theta=m.theta.get(peer_id, 0.0),
                ability_level=m.ability_level.get(peer_id, Level.MEDIUM).label,
                target_kc_accuracy=_kc_accuracy(rows, target_kc),
                overall_accuracy=(sum(1 for i in rows if i.correct) / len(rows) if rows else 0.5),
                history=tuple((i.question_id, i.correct, i.timestamp) for i in kc_rows),
            )
        )

    return PromptBundle(
        target_student=u,
        theta=m.theta.get(u, 0.0),
        ability_level=m.ability_level.get(u, Level.MEDIUM).label,
        history=tuple(history_rows),
        question_id=q,
        question_kcs=tuple(sorted(question_kcs[q])),
        target_kc=target_kc,
        student_kc_accuracy=_kc_accuracy(own_rows, target_kc),
        difficulty=m.diff.get(q, 0.0),
        discrimination=m.disc.get(q, 1.0),
        difficulty_level=m.difficulty_level.get(q, Level.MEDIUM).label,
        cold_start=not m.has_question(q),
        peers=tuple(peer_infos),
        ablation_mask=mask,
    )


def reference_mock_reply(text: str) -> str:
    """The mock's reply computed from every field of the prompt."""
    return mock_reply(parse_prompt(text))


def _numbered_line_body(line: str) -> str | None:
    """The text after ``"  <digits>. "`` when ``line`` starts so, else None."""
    if not line.startswith("  "):
        return None
    dot = line.find(". ", 2)
    return line[dot + 2:] if dot > 2 and line[2:dot].isdecimal() else None


def reference_parse_scoring_prompt(text: str) -> tuple[list[Node], str, dict[str, int], dict[str, frozenset[str]]]:
    """The path, target KC, and each question's hop count and KC set written in a scoring prompt."""
    target_kc = ""
    nodes: list[Node] = []
    hop_of: dict[str, int] = {}
    kc_of: dict[str, frozenset[str]] = {}
    for line in text.splitlines():
        if line.startswith("target_kc: "):
            target_kc = line.split(": ", 1)[1]
        elif (body := _numbered_line_body(line)) is not None:
            head, *notes = body.split(" | ")
            kind, node_id = head.split(":", 1)
            nodes.append((kind, node_id))
            if kind == "Q":
                fields = dict(note.split(": ", 1) for note in notes)
                hop_of[node_id] = int(fields["hops_from_target"])
                kc_of[node_id] = frozenset(k for k in fields["kcs"].split(";") if k)
    return nodes, target_kc, hop_of, kc_of
