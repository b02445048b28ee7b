import os
import sys

import helpers


def pytest_configure(config):
    # pytest redirects file descriptor 2 while a test runs, and the backstop
    # of time_limit ends the process before the captured output is shown; a
    # copy taken now still reaches the terminal
    helpers.backstop_file = os.dup(2)


def pytest_unconfigure(config):
    os.close(helpers.backstop_file)
    helpers.backstop_file = sys.__stderr__
